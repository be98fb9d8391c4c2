package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// recounted wraps a machine so that every MemWords read the cluster makes
// — once per round for each active machine, at the settle barrier on the
// driver goroutine — first compares the machine's running bookkeeping
// with a recount.
type recounted struct {
	mpc.Machine
	words  func() int
	check  func() error
	errs   *[]error
	checks *int
}

func (r recounted) MemWords() int {
	*r.checks++
	if err := r.check(); err != nil {
		*r.errs = append(*r.errs, err)
	}
	return r.words()
}

// watchRunningState wraps every machine of m with its recount check and
// returns the collected mismatches and the number of checks made.
func watchRunningState(m *M) (errs *[]error, checks *int) {
	errs, checks = new([]error), new(int)
	c := m.coord
	m.cluster.SetMachine(0, recounted{Machine: c, words: c.MemWords, errs: errs, checks: checks, check: c.checkSync})
	for _, sm := range m.stats {
		m.cluster.SetMachine(sm.id, recounted{Machine: sm, words: sm.MemWords, errs: errs, checks: checks, check: sm.checkWords})
	}
	for _, sm := range m.storage {
		m.cluster.SetMachine(sm.id, recounted{Machine: sm, words: sm.MemWords, errs: errs, checks: checks, check: sm.checkIndex})
	}
	return errs, checks
}

// TestRunningCountsEveryRound pins the O(1) bookkeeping against a recount
// after every round: the statistics machines' word counts, the storage
// machines' record counts and owners indexes, and the coordinator's
// cursor sum — through heavy transitions, single updates, wave and
// chained batches and §4 list traffic, on both backends.
func TestRunningCountsEveryRound(t *testing.T) {
	const n = 24
	for _, be := range []mpc.BackendKind{mpc.BackendSim, mpc.BackendParallel} {
		for _, three := range []bool{false, true} {
			// CapEdges 20 puts the heavy threshold at degree 10, so the hub
			// edges below promote vertex 0 and the deletes demote it again.
			m := New(Config{N: n, CapEdges: 20, ThreeHalves: three, Backend: be, Workers: 3})
			errs, checks := watchRunningState(m)
			g := graph.New(n)
			var stream []graph.Update
			for v := 1; v <= 12; v++ {
				stream = append(stream, graph.Update{Op: graph.Insert, U: 0, V: v})
			}
			for v := 1; v <= 6; v++ {
				stream = append(stream, graph.Update{Op: graph.Delete, U: 0, V: v})
			}
			for _, up := range stream {
				if up.Op == graph.Insert {
					m.Insert(up.U, up.V)
				} else {
					m.Delete(up.U, up.V)
				}
				g.Apply(up)
			}
			rng := rand.New(rand.NewSource(13))
			rest := churn(g, 160, 18, rng)
			for _, b := range graph.Chunk(rest[:80], 16) {
				m.ApplyBatch(b)
				b.Apply(g)
			}
			m.ApplyBatchChained(rest[80:120])
			graph.Batch(rest[80:120]).Apply(g)
			ops := graph.UpdateOps(rest[120:])
			for v := 0; v < n; v += 5 {
				ops = append(ops, graph.Op{Kind: graph.OpMateOf, U: v})
			}
			m.ApplyOps(ops)
			graph.Batch(rest[120:]).Apply(g)
			m.Close()

			if len(*errs) > 0 {
				t.Fatalf("%v three=%v: %d mismatches, first: %v", be, three, len(*errs), (*errs)[0])
			}
			if *checks == 0 {
				t.Fatalf("%v three=%v: the cluster never read MemWords", be, three)
			}
			if err := m.Validate(g); err != nil {
				t.Fatalf("%v three=%v: %v", be, three, err)
			}
		}
	}
}

// churn continues a well-formed stream from g's current edges: k random
// pair toggles, inserting only while fewer than maxEdges edges exist.
func churn(g *graph.Graph, k, maxEdges int, rng *rand.Rand) []graph.Update {
	h := g.Clone()
	var out []graph.Update
	for len(out) < k {
		u, v := rng.Intn(h.N()), rng.Intn(h.N())
		if u == v {
			continue
		}
		up := graph.Update{Op: graph.Delete, U: u, V: v}
		if !h.Has(u, v) {
			if h.M() >= maxEdges {
				continue
			}
			up.Op = graph.Insert
		}
		h.Apply(up)
		out = append(out, up)
	}
	return out
}

// TestValidateIsReadOnly: Validate materialises no statistics entry, so
// validating mid-stream moves no machine's MemWords and no later round's
// PeakMemWords — an instance validated after every update accounts
// exactly like one never validated.
func TestValidateIsReadOnly(t *testing.T) {
	const n = 64 // most vertices stay untouched
	rng := rand.New(rand.NewSource(3))
	stream := graph.RandomStream(n/4, 120, 0.6, 1, rng)
	checked := New(Config{N: n, CapEdges: 80})
	plain := New(Config{N: n, CapEdges: 80})
	g := graph.New(n)
	words := func(m *M) []int {
		var out []int
		for id := 0; id < m.cluster.Machines(); id++ {
			out = append(out, m.cluster.MachineAt(id).(mpc.MemReporter).MemWords())
		}
		return out
	}
	for step, up := range stream {
		for _, m := range []*M{checked, plain} {
			if up.Op == graph.Insert {
				m.Insert(up.U, up.V)
			} else {
				m.Delete(up.U, up.V)
			}
		}
		g.Apply(up)
		before, st := words(checked), *checked.Cluster().Stats()
		if err := checked.Validate(g); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for id, w := range words(checked) {
			if w != before[id] {
				t.Fatalf("step %d: Validate moved machine %d's MemWords %d -> %d", step, id, before[id], w)
			}
		}
		if after := *checked.Cluster().Stats(); after.PeakMemWords != st.PeakMemWords ||
			after.Rounds != st.Rounds || after.Words != st.Words || after.Messages != st.Messages {
			t.Fatalf("step %d: Validate moved the cluster stats", step)
		}
	}
	assertSameAccounting(t, plain.Cluster(), checked.Cluster())
}

// storeIndexFixture builds a small instance whose first light machine
// holds records of several vertices, some naming the same neighbor.
func storeIndexFixture(t *testing.T) (*M, *graph.Graph, *storeMachine) {
	t.Helper()
	m := New(Config{N: 16, CapEdges: 64})
	g := graph.New(16)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 1}, {4, 5}} {
		m.Insert(e[0], e[1])
		g.Apply(graph.Update{Op: graph.Insert, U: e[0], V: e[1]})
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, sm := range m.storage {
		if len(sm.owners[1]) >= 2 {
			return m, g, sm
		}
	}
	t.Fatal("fixture: no storage machine holds two records naming vertex 1")
	return nil, nil, nil
}

// TestValidateChecksStoreIndex: Validate refuses every way the running
// bookkeeping can drift from the state it mirrors — a statistics or
// storage word count, the owners index (dropped, stale, double-filed or
// misfiled owners, empty lists) and the coordinator's cursor sum.
func TestValidateChecksStoreIndex(t *testing.T) {
	m, g, sm := storeIndexFixture(t)
	orig := append([]int32(nil), sm.owners[1]...)
	restore := func() { sm.owners[1] = append([]int32(nil), orig...) }
	const stranger = 15 // holds no record
	for _, bc := range []struct {
		name          string
		corrupt, mend func()
	}{
		{"stats word count", func() { m.stats[0].words++ }, func() { m.stats[0].words-- }},
		{"storage record count", func() { sm.nrecs-- }, func() { sm.nrecs++ }},
		{"owner dropped", func() { sm.owners[1] = sm.owners[1][1:] }, restore},
		{"stale owner", func() { sm.owners[1] = append(sm.owners[1], stranger) }, restore},
		{"owner filed twice", func() { sm.owners[1] = append(sm.owners[1], orig[0]) }, restore},
		{"owner filed under another vertex", func() {
			sm.owners[1] = sm.owners[1][1:]
			sm.owners[stranger] = []int32{orig[0]}
		}, func() { delete(sm.owners, stranger); restore() }},
		{"empty owners list", func() { sm.owners[stranger] = []int32{} }, func() { delete(sm.owners, stranger) }},
		{"index never allocated", func() { sm.owners = nil }, func() {
			sm.owners = map[int32][]int32{}
			for v, recs := range sm.edges {
				for _, r := range recs {
					sm.owners[r.other] = append(sm.owners[r.other], v)
				}
			}
		}},
		{"cursor sum", func() { m.coord.syncSum++ }, func() { m.coord.syncSum-- }},
	} {
		bc.corrupt()
		if err := m.Validate(g); err == nil {
			t.Errorf("Validate accepted broken bookkeeping: %s", bc.name)
		}
		bc.mend()
		if err := m.Validate(g); err != nil {
			t.Fatalf("after mending %s: %v", bc.name, err)
		}
	}
}

// TestSuffixNeverChanges: a suffix handed out by suffixFor is a view of H,
// and H only ever appends past it — trimming and regrowing the ring
// leaves every entry a receiver may still be reading untouched.
func TestSuffixNeverChanges(t *testing.T) {
	m := New(Config{N: 16, CapEdges: 16})
	c := m.coord
	next := int32(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			c.hAppend(hentry{op: hEdgeIns, a: next, b: next + 1})
			next++
		}
	}
	syncAll := func() {
		for i := c.firstStore(); i < c.mu; i++ {
			c.syncNow(int32(i))
		}
	}
	push(40)
	target := int32(c.firstStore())
	sent := c.suffixFor(target)
	want := append([]hentry(nil), sent...)
	if len(want) != 40 {
		t.Fatalf("suffix holds %d entries, want 40", len(want))
	}
	regrown := 0
	for c.hBase < int64(6*c.hCap) {
		capBefore := cap(c.h)
		push(c.hCap / 8)
		if cap(c.h) > capBefore {
			regrown++
		}
		syncAll() // every machine keeps up, so trimming never panics
	}
	if regrown < 3 {
		t.Fatalf("H regrew %d times, want at least 3", regrown)
	}
	for i := range want {
		if sent[i] != want[i] {
			t.Fatalf("sent suffix entry %d changed from %+v to %+v", i, want[i], sent[i])
		}
	}

	// The same through the protocol: on the parallel backend storage
	// machines replay their views while MC appends, trims and regrows H
	// in the same round; the run must match the sim oracle bit for bit.
	rng := rand.New(rand.NewSource(7))
	stream := churn(graph.New(16), 1200, 14, rng)
	sim := New(Config{N: 16, CapEdges: 16})
	par := New(parallelConfig(Config{N: 16, CapEdges: 16}))
	defer par.Close()
	g := graph.New(16)
	for _, b := range graph.Chunk(stream, 8) {
		sim.ApplyBatch(b)
		par.ApplyBatch(b)
		b.Apply(g)
	}
	if par.coord.hBase < int64(2*par.coord.hCap) {
		t.Fatalf("H trimmed only %d entries, want at least %d", par.coord.hBase, 2*par.coord.hCap)
	}
	assertBackendEquivalent(t, sim, par)
	if err := par.Validate(g); err != nil {
		t.Fatal(err)
	}
}

var suffixSink []hentry

// TestSuffixForAllocatesNothing: a suffix travels as a view, never a copy.
func TestSuffixForAllocatesNothing(t *testing.T) {
	m := New(Config{N: 16, CapEdges: 16})
	c := m.coord
	for i := int32(0); i < 32; i++ {
		c.hAppend(hentry{op: hEdgeIns, a: i, b: i + 1})
	}
	const runs = 16
	if c.mu-c.firstStore() < runs+1 {
		t.Fatalf("need %d storage machines, have %d", runs+1, c.mu-c.firstStore())
	}
	next := c.firstStore()
	allocs := testing.AllocsPerRun(runs, func() {
		suffixSink = c.suffixFor(int32(next))
		next++
	})
	if allocs != 0 {
		t.Fatalf("suffixFor allocates %.1f times per call, want 0", allocs)
	}
	if len(suffixSink) != 32 {
		t.Fatalf("last suffix holds %d entries, want 32", len(suffixSink))
	}
}
