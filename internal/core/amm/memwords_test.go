package amm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// recounted wraps a machine so that every MemWords read the cluster makes
// — once per round for each active machine, at the settle barrier on the
// driver goroutine — first compares the running count with a recount.
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

// TestMemWordsRunningCounts pins the O(1) MemWords of the shards and the
// scheduler: the running counts equal a recount of the state they charge
// after every round, through single updates, batches and mixed op
// streams, on both backends.
func TestMemWordsRunningCounts(t *testing.T) {
	for _, be := range []mpc.BackendKind{mpc.BackendSim, mpc.BackendParallel} {
		const n = 40
		m := New(Config{N: n, Seed: 5, Backend: be, Workers: 3})
		var errs []error
		checks := 0
		for _, sh := range m.shards {
			m.cluster.SetMachine(sh.id, recounted{Machine: sh, words: sh.MemWords, errs: &errs, checks: &checks, check: sh.checkWords})
		}
		s := m.sched
		m.cluster.SetMachine(0, recounted{Machine: s, words: s.MemWords, errs: &errs, checks: &checks, check: s.checkQueued})

		rng := rand.New(rand.NewSource(17))
		stream := graph.RandomStream(n, 240, 0.55, 1, rng)
		g := graph.New(n)
		for i, up := range stream[:60] {
			if up.Op == graph.Insert {
				m.Insert(up.U, up.V)
			} else {
				m.Delete(up.U, up.V)
			}
			g.Apply(up)
			if i%10 == 0 {
				m.MateOfBatch([]int{up.U, up.V})
			}
		}
		for _, b := range graph.Chunk(stream[60:180], 16) {
			m.ApplyBatch(b)
			b.Apply(g)
		}
		ops := graph.UpdateOps(stream[180:])
		for v := 0; v < n; v += 3 {
			ops = append(ops, graph.Op{Kind: graph.OpMateOf, U: v})
		}
		m.ApplyOps(ops)
		for _, up := range stream[180:] {
			g.Apply(up)
		}
		m.Close()

		if len(errs) > 0 {
			t.Fatalf("backend %v: %d running-count mismatches, first: %v", be, len(errs), errs[0])
		}
		if checks == 0 {
			t.Fatalf("backend %v: the cluster never read MemWords", be)
		}
		if err := m.Validate(g); err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
	}
}
