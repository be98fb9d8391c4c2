package dmpc

import (
	"fmt"
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// TestFacadeConnectivity drives the public API against the oracle.
func TestFacadeConnectivity(t *testing.T) {
	const n = 40
	cc := NewConnectivity(n, 200)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(1))
	for _, up := range graph.RandomStream(n, 250, 0.55, 1, rng) {
		if up.Op == Insert {
			cc.Insert(up.U, up.V)
		} else {
			cc.Delete(up.U, up.V)
		}
		g.Apply(up)
	}
	comp := graph.Components(g)
	for u := 0; u < n; u += 3 {
		for v := u + 1; v < n; v += 4 {
			if cc.Connected(u, v) != (comp[u] == comp[v]) {
				t.Fatalf("Connected(%d,%d) mismatch", u, v)
			}
		}
	}
	mine := make([]int, n)
	for v := 0; v < n; v++ {
		mine[v] = int(cc.ComponentOf(v))
	}
	if !graph.SameLabeling(mine, comp) {
		t.Fatal("component labels do not partition like the oracle")
	}
	if cc.Cluster().Stats().Rounds == 0 {
		t.Fatal("no rounds accounted")
	}
}

func TestFacadeMST(t *testing.T) {
	const n = 24
	mst := NewMST(n, 0, 150)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(2))
	for _, up := range graph.RandomStream(n, 180, 0.6, 50, rng) {
		if up.Op == Insert {
			mst.Insert(up.U, up.V, up.W)
		} else {
			mst.Delete(up.U, up.V)
		}
		g.Apply(up)
		if mst.Weight() != graph.MSFWeight(g) {
			t.Fatalf("after %v: weight %d want %d", up, mst.Weight(), graph.MSFWeight(g))
		}
	}
	var plain []graph.Edge
	for _, e := range mst.ForestEdges() {
		plain = append(plain, graph.Edge{U: e.U, V: e.V})
	}
	if !graph.IsSpanningForest(g, plain) {
		t.Fatal("forest edges are not a spanning forest")
	}
}

func TestFacadeMatchings(t *testing.T) {
	const n = 20
	mm := NewMaximalMatching(n, 120)
	m32 := NewThreeHalvesMatching(n, 120)
	am := NewAlmostMaximalMatching(n, 0.2, 7)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(3))
	for _, up := range graph.RandomStream(n, 200, 0.55, 1, rng) {
		if up.Op == Insert {
			mm.Insert(up.U, up.V)
			m32.Insert(up.U, up.V)
			am.Insert(up.U, up.V)
		} else {
			mm.Delete(up.U, up.V)
			m32.Delete(up.U, up.V)
			am.Delete(up.U, up.V)
		}
		g.Apply(up)
		if !graph.IsMaximalMatching(g, mm.MateTable()) {
			t.Fatalf("after %v: §3 matching not maximal", up)
		}
		mt := m32.MateTable()
		if !graph.IsMaximalMatching(g, mt) || graph.HasLength3AugPath(g, mt) {
			t.Fatalf("after %v: §4 certificate broken", up)
		}
		if !graph.IsMatching(g, am.MateTable()) {
			t.Fatalf("after %v: §6 matching invalid", up)
		}
	}
}

// TestWorstCaseRoundsFlatAcrossSizes is the headline Table 1 property on
// the public API: worst-case rounds per update do not grow with n for any
// of the O(1)-round algorithms.
func TestWorstCaseRoundsFlatAcrossSizes(t *testing.T) {
	worstAt := func(n int) (cc, mst int) {
		c := NewConnectivity(n, 5*n)
		m := NewMST(n, 0.25, 5*n)
		rng := rand.New(rand.NewSource(9))
		for _, up := range graph.RandomStream(n, 200, 0.55, 30, rng) {
			var s1, s2 UpdateStats
			if up.Op == Insert {
				s1 = c.Insert(up.U, up.V)
				s2 = m.Insert(up.U, up.V, up.W)
			} else {
				s1 = c.Delete(up.U, up.V)
				s2 = m.Delete(up.U, up.V)
			}
			if s1.Rounds > cc {
				cc = s1.Rounds
			}
			if s2.Rounds > mst {
				mst = s2.Rounds
			}
		}
		return cc, mst
	}
	cc32, mst32 := worstAt(32)
	cc256, mst256 := worstAt(256)
	if cc256 > cc32+3 {
		t.Fatalf("CC worst rounds grew: %d -> %d", cc32, cc256)
	}
	if mst256 > mst32+3 {
		t.Fatalf("MST worst rounds grew: %d -> %d", mst32, mst256)
	}
}

// TestBatchPipeline drives ApplyBatch through the public API: batch
// application must match sequential application exactly for connectivity
// and maximal matching, and the amortized rounds per update at k=64 must
// be strictly lower than at k=1 — the batch-dynamic headline.
func TestBatchPipeline(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(21))
	stream := graph.RandomStream(n, 256, 0.55, 1, rng)

	amortized := func(k int) (cc, mm float64) {
		c := NewConnectivity(n, 5*n)
		m := NewMaximalMatching(n, 5*n)
		var ccR, mmR, upd int
		for _, b := range Chunk(stream, k) {
			ccR += c.ApplyBatch(b).Rounds
			mmR += m.ApplyBatch(b).Rounds
			upd += len(b)
		}
		if k == 64 {
			// Pin equivalence against per-update application.
			seqC := NewConnectivity(n, 5*n)
			seqM := NewMaximalMatching(n, 5*n)
			for _, up := range stream {
				if up.Op == Insert {
					seqC.Insert(up.U, up.V)
					seqM.Insert(up.U, up.V)
				} else {
					seqC.Delete(up.U, up.V)
					seqM.Delete(up.U, up.V)
				}
			}
			for v := 0; v < n; v++ {
				if c.ComponentOf(v) != seqC.ComponentOf(v) {
					t.Fatalf("component of %d differs between batch and sequential", v)
				}
			}
			want, got := seqM.MateTable(), m.MateTable()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("mate of %d differs between batch and sequential", v)
				}
			}
		}
		return float64(ccR) / float64(upd), float64(mmR) / float64(upd)
	}

	cc1, mm1 := amortized(1)
	cc64, mm64 := amortized(64)
	if cc64 >= cc1 {
		t.Fatalf("connectivity amortized rounds/update did not drop: k=1 %.2f, k=64 %.2f", cc1, cc64)
	}
	if mm64 >= mm1 {
		t.Fatalf("matching amortized rounds/update did not drop: k=1 %.2f, k=64 %.2f", mm1, mm64)
	}
}

// TestQueryPipeline drives the batched query path through the public API:
// ConnectedBatch and MateOfBatch agree with the oracles, the k=64
// connectivity batch amortizes under 0.5 rounds/query (vs ~2 sequential),
// and interleaving query batches between update batches leaves the batch
// accounting untouched.
func TestQueryPipeline(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(33))
	stream := graph.RandomStream(n, 256, 0.55, 1, rng)

	cc := NewConnectivity(n, 5*n)
	mm := NewMaximalMatching(n, 5*n)
	g := NewGraph(n)
	qrng := rand.New(rand.NewSource(34))
	for _, b := range Chunk(stream, 32) {
		cc.ApplyBatch(b)
		mm.ApplyBatch(b)
		b.Apply(g)
		// A read burst between write batches.
		pairs := graph.RandomPairs(n, 16, qrng)
		comp := graph.Components(g)
		for i, conn := range cc.ConnectedBatch(pairs) {
			if conn != (comp[pairs[i].U] == comp[pairs[i].V]) {
				t.Fatalf("ConnectedBatch(%v) wrong at %d", pairs[i], i)
			}
		}
		oracle := mm.MateTable()
		vs := []int{0, n / 2, n - 1}
		for i, mate := range mm.MateOfBatch(vs) {
			if mate != oracle[vs[i]] {
				t.Fatalf("MateOfBatch[%d] = %d, oracle %d", vs[i], mate, oracle[vs[i]])
			}
		}
	}

	// Amortization on the public API: one k=64 window costs 2 rounds.
	pairs := graph.RandomPairs(n, 64, qrng)
	cc.ConnectedBatch(pairs)
	qs := cc.Cluster().Stats().Queries()
	last := qs[len(qs)-1]
	if last.Queries != 64 || last.RoundsPerQuery() >= 0.5 {
		t.Fatalf("k=64 window %+v, want < 0.5 amortized rounds/query", last)
	}

	// The interleaved reads must not have perturbed write accounting.
	quiet := NewConnectivity(n, 5*n)
	for _, b := range Chunk(stream, 32) {
		quiet.ApplyBatch(b)
	}
	want := quiet.Cluster().Stats().Batches()
	got := cc.Cluster().Stats().Batches()
	if len(want) != len(got) {
		t.Fatalf("batch window counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("batch %d accounting differs with reads interleaved: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestPipelineMixedConnectivity drives the unified front door on a mixed
// stream: in-wave answers must equal sequential replay at the same stream
// positions, the final state must match, and the mixed window must
// partition its rounds between the two halves.
func TestPipelineMixedConnectivity(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(21))
	updates := graph.RandomStream(n, 240, 0.55, 1, rng)
	ops := graph.MixedStream(updates, 0.4, func(r *rand.Rand) Op {
		if r.Intn(3) == 0 {
			return OpQComponentOf(r.Intn(n))
		}
		return OpQConnected(r.Intn(n), r.Intn(n))
	}, rng)

	ref := NewConnectivity(n, 5*n)
	var want Results
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			ref.Insert(op.U, op.V)
		case OpDelete:
			ref.Delete(op.U, op.V)
		case OpConnected:
			want = append(want, Answer{Bool: ref.Connected(op.U, op.V)})
		case OpComponentOf:
			want = append(want, Answer{Int: ref.ComponentOf(op.U)})
		}
	}

	cc := NewConnectivity(n, 5*n)
	var got Results
	for _, chunk := range SplitOps(ops, 32) {
		res, st := cc.Apply(chunk)
		got = append(got, res...)
		u, q := CountOps(chunk)
		if st.Ops != len(chunk) || st.Updates.Updates != u || st.Queries.Queries != q {
			t.Fatalf("window shape (%d,%d,%d) for chunk (%d,%d,%d)",
				st.Ops, st.Updates.Updates, st.Queries.Queries, len(chunk), u, q)
		}
		if st.Updates.Rounds+st.Queries.Rounds != st.Rounds() {
			t.Fatalf("halves do not partition the window: %+v", st)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	for v := 0; v < n; v++ {
		if cc.CompOf(v) != ref.CompOf(v) {
			t.Fatalf("component of %d diverged", v)
		}
	}
}

// TestPipelineMixedMatching drives the §3 pipeline on a mixed stream with
// mate and matched reads, against sequential replay.
func TestPipelineMixedMatching(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(22))
	updates := graph.RandomStream(n, 200, 0.6, 1, rng)
	ops := graph.MixedStream(updates, 0.5, func(r *rand.Rand) Op {
		if r.Intn(3) == 0 {
			return OpQMatched(r.Intn(n), r.Intn(n))
		}
		return OpQMateOf(r.Intn(n))
	}, rng)

	ref := NewMaximalMatching(n, len(updates))
	var want Results
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			ref.Insert(op.U, op.V)
		case OpDelete:
			ref.Delete(op.U, op.V)
		case OpMateOf:
			want = append(want, Answer{Int: int64(ref.MateOf(op.U))})
		case OpMatched:
			want = append(want, Answer{Bool: ref.Matched(op.U, op.V)})
		}
	}

	mm := NewMaximalMatching(n, len(updates))
	var got Results
	for _, chunk := range SplitOps(ops, 24) {
		res, _ := mm.Apply(chunk)
		got = append(got, res...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	wantT, gotT := ref.MateTable(), mm.MateTable()
	for v := range wantT {
		if wantT[v] != gotT[v] {
			t.Fatalf("mate of %d diverged: %d vs %d", v, gotT[v], wantT[v])
		}
	}
}

// TestPipelineMixedAlmostMaximal drives the §6 pipeline on a mixed stream.
// amm's batch mode does not promise bit-equivalence with sequential
// replay, so the pin is internal consistency: every in-wave answer must
// agree with the authoritative matching at its stream position, checked
// by re-asking the structure's oracle right after each chunk for the
// chunk-final reads.
func TestPipelineMixedAlmostMaximal(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(23))
	updates := graph.RandomStream(n, 160, 0.65, 1, rng)

	am := NewAlmostMaximalMatching(n, 0.5, 9)
	g := NewGraph(n)
	for _, chunk := range Chunk(updates, 20) {
		ops := UpdateOps(chunk)
		// Tail reads observe the post-chunk state, so the oracle can
		// check them exactly.
		probes := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		for _, v := range probes {
			ops = append(ops, OpQMateOf(v))
		}
		res, st := am.Apply(ops)
		u, q := CountOps(ops)
		if st.Updates.Updates != u || st.Queries.Queries != q {
			t.Fatalf("window shape %+v for (%d,%d)", st, u, q)
		}
		for _, up := range chunk {
			g.Apply(up)
		}
		table := am.MateTable()
		for i, v := range probes {
			if int(res[i].Int) != table[v] {
				t.Fatalf("read of %d answered %d, authoritative mate is %d", v, res[i].Int, table[v])
			}
		}
	}
	if !graph.IsMatching(g, am.MateTable()) {
		t.Fatal("final matching invalid over the final graph")
	}
}

// TestPipelineRejectsForeignKinds pins the typed-kind contract on every
// facade structure and both backends: an op of a kind the structure does
// not answer is refused at the front door — a typed Rejections record,
// a Rejected answer for a query — instead of panicking inside the core
// or returning garbage, through Apply and Ingest alike. Supported ops
// around the refused ones are unaffected.
func TestPipelineRejectsForeignKinds(t *testing.T) {
	connForeign := []Op{QMateOf(1), QMatched(1, 2), {Kind: graph.OpKind(42), U: 1, V: 2}}
	matchForeign := []Op{QConnected(1, 2), QComponentOf(1), QSubtreeSum(1, 2), QPathSum(1, 2), QTreeTop(1), SetWeight(1, 5)}
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		for _, c := range []struct {
			name    string
			p       Pipeline
			foreign []Op
			probe   Op // a supported read: 1 and 2 are linked or matched
		}{
			{"Connectivity", NewConnectivity(8, 16, WithBackend(be)), connForeign, QConnected(1, 2)},
			{"MST", NewMST(8, 0, 16, WithBackend(be)), connForeign, QConnected(1, 2)},
			{"MaximalMatching", NewMaximalMatching(8, 16, WithBackend(be)), matchForeign, QMatched(1, 2)},
			{"ThreeHalvesMatching", NewThreeHalvesMatching(8, 16, WithBackend(be)), matchForeign, QMatched(1, 2)},
			{"AlmostMaximalMatching", NewAlmostMaximalMatching(8, 0.5, 1, WithBackend(be)), matchForeign, QMatched(1, 2)},
		} {
			name := fmt.Sprintf("%s/%v", c.name, be)
			for _, op := range c.foreign {
				res, st := c.p.Apply([]Op{Ins(1, 2), op, c.probe})
				var want []Answer
				if op.IsQuery() {
					want = append(want, Answer{Rejected: true})
				}
				want = append(want, Answer{Bool: true})
				if fmt.Sprint(res) != fmt.Sprint(want) || st.Ops != 2 {
					t.Fatalf("%s: Apply with %v answered %+v over %d ops, want %+v over 2", name, op, res, st.Ops, want)
				}
				res, sst := Ingest(c.p, ArrivalsNow([]Op{op, c.probe}), IngestorConfig{MaxBatch: 2})
				if sst.Rejected != 1 || len(sst.Rejections) != 1 ||
					sst.Rejections[0] != (Rejection{Index: 0, Query: op.IsQuery()}) {
					t.Fatalf("%s: Ingest of %v: rejections %d %+v", name, op, sst.Rejected, sst.Rejections)
				}
				if !res[len(res)-1].Bool {
					t.Fatalf("%s: Ingest of %v: probe answered %+v", name, op, res)
				}
				c.p.Apply([]Op{Del(1, 2)})
			}
			c.p.Close()
		}
	}
}

// TestFrontDoorVertexBounds: an op naming a vertex outside [0, n) is
// refused at the front door on every structure and both backends — a
// typed Rejections record, a Rejected answer for a query — instead of
// creating phantom state (Ins(0,99) then QConnected(0,99) answering
// true) or panicking inside a shard (QConnected(-1,2)). Valid ops around
// the refused ones are unaffected.
func TestFrontDoorVertexBounds(t *testing.T) {
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		cc := NewConnectivity(8, 16, WithBackend(be))
		res, _ := cc.Apply([]Op{Ins(0, 99), Ins(0, 7), QConnected(0, 99), QConnected(-1, 2), QConnected(0, 7), QComponentOf(8)})
		want := []Answer{{Rejected: true}, {Rejected: true}, {Bool: true}, {Rejected: true}}
		if len(res) != len(want) {
			t.Fatalf("%v: %d answers, want %d", be, len(res), len(want))
		}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("%v: answer %d = %+v, want %+v", be, i, res[i], want[i])
			}
		}
		// The refused insert left no trace: 0 is linked to 7 only, and
		// the untouched vertex 6 is still its own singleton.
		res, st := cc.Apply([]Op{QConnected(0, 7), QComponentOf(0), QComponentOf(6)})
		if !res[0].Bool || res[1].Int == res[2].Int || res[2].Int != 6 {
			t.Fatalf("%v: state after refused ops: %+v", be, res)
		}
		if st.Ops != 3 {
			t.Fatalf("%v: valid window ran %d ops, want 3", be, st.Ops)
		}
		// A slice refused entirely runs no window.
		if res, st := cc.Apply([]Op{QConnected(-1, 2)}); len(res) != 1 || !res[0].Rejected || st.Ops != 0 {
			t.Fatalf("%v: all-refused Apply answered %+v with %d ops", be, res, st.Ops)
		}
		if err := cc.d.Validate(); err != nil {
			t.Fatalf("%v: %v", be, err)
		}
		cc.Close()

		// Ingest surfaces the same refusals as typed records.
		mm := NewMaximalMatching(8, 16, WithBackend(be))
		res, sst := Ingest(mm, ArrivalsNow([]Op{Ins(1, 2), Ins(3, 8), QMateOf(1), QMateOf(-4), QMatched(1, 2)}), IngestorConfig{MaxBatch: 2})
		if sst.Rejected != 2 || len(sst.Rejections) != 2 ||
			sst.Rejections[0] != (Rejection{Index: 1}) || sst.Rejections[1] != (Rejection{Index: 3, Query: true}) {
			t.Fatalf("%v: rejections %d %+v, want ops 1 and 3", be, sst.Rejected, sst.Rejections)
		}
		if len(res) != 3 || res[0].Int != 2 || !res[1].Rejected || !res[2].Bool {
			t.Fatalf("%v: matching answers %+v", be, res)
		}
		mm.Close()
	}
}
