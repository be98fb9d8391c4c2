package main

import (
	"fmt"

	"dmpc/internal/graph"
	"dmpc/internal/seqdyn"
	"dmpc/internal/treedp"
)

// checkAnswers replays the stream against a reference outside the timed
// section and returns how many ops were answered wrongly. A failed
// end-state check fails every op of the pass. replica holds the answers
// of a BackendSim replay of the same windows (treedp-bursty only), and
// replicaErr its Validate result.
func checkAnswers(w *workload, ops []graph.Op, p *pass, replica graph.Results, replicaErr error) (wrong int, err error) {
	if len(p.res) != countQueries(ops) {
		return len(ops), fmt.Errorf("%s: %d answers for %d queries", w.name, len(p.res), countQueries(ops))
	}
	switch w.name {
	case "conn-churn":
		return checkConnected(w.n, ops, p.res)
	case "match-poisson":
		return checkMates(w.n, ops, p.res, p.mates)
	case "treedp-bursty":
		if replicaErr != nil {
			return len(ops), fmt.Errorf("%s: BackendSim replica: %v", w.name, replicaErr)
		}
		return checkTreeDP(w.n, ops, p.res, replica)
	}
	return len(ops), fmt.Errorf("no answer check for workload %q", w.name)
}

func countQueries(ops []graph.Op) int {
	_, nq := graph.CountOps(ops)
	return nq
}

// mismatches counts wrong answers and keeps the first as the error.
type mismatches struct {
	n   int
	err error
}

func (m *mismatches) add(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
	m.n++
}

// checkConnected compares every QConnected answer with an HDT replay at
// the answer's stream position.
func checkConnected(n int, ops []graph.Op, res graph.Results) (int, error) {
	h := seqdyn.NewHDT(n)
	var bad mismatches
	j := 0
	for i, op := range ops {
		switch op.Kind {
		case graph.OpInsert:
			h.Insert(op.U, op.V)
		case graph.OpDelete:
			h.Delete(op.U, op.V)
		case graph.OpConnected:
			if want := h.Connected(op.U, op.V); res[j].Bool != want {
				bad.add("conn-churn: op %d %v answered %v, HDT says %v", i, op, res[j].Bool, want)
			}
			j++
		}
	}
	return bad.n, bad.err
}

// checkMates checks that every non-free QMateOf answer is an edge that
// exists at the answer's stream position, and that the final mate table
// is a maximal matching of the final graph.
func checkMates(n int, ops []graph.Op, res graph.Results, mates []int) (int, error) {
	g := graph.New(n)
	var bad mismatches
	j := 0
	for i, op := range ops {
		switch op.Kind {
		case graph.OpInsert, graph.OpDelete:
			g.Apply(op.Update())
		case graph.OpMateOf:
			if m := int(res[j].Int); m >= 0 && !g.Has(op.U, m) {
				bad.add("match-poisson: op %d %v answered mate %d, but that edge is absent", i, op, m)
			}
			j++
		}
	}
	if !graph.IsMaximalMatching(g, mates) {
		return len(ops), fmt.Errorf("match-poisson: final mate table is not a maximal matching")
	}
	return bad.n, bad.err
}

// checkTreeDP checks TreeTop answers against a weights-plus-adjacency
// replay and SubtreeSum/PathSum answers bit for bit against the
// BackendSim replica.
func checkTreeDP(n int, ops []graph.Op, res, replica graph.Results) (int, error) {
	if len(replica) != len(res) {
		return len(ops), fmt.Errorf("treedp-bursty: replica gave %d answers, facade %d", len(replica), len(res))
	}
	o := treedp.NewOracle(n)
	adj := make([][]int, n)
	var bad mismatches
	j := 0
	for i, op := range ops {
		switch op.Kind {
		case graph.OpInsert:
			adj[op.U] = append(adj[op.U], op.V)
			adj[op.V] = append(adj[op.V], op.U)
		case graph.OpDelete:
			adj[op.U] = without(adj[op.U], op.V)
			adj[op.V] = without(adj[op.V], op.U)
		case graph.OpSetWeight:
			o.SetWeight(op.U, int64(op.W))
		case graph.OpTreeTop:
			if want := o.TreeTop(adj, op.U); res[j].Int != want {
				bad.add("treedp-bursty: op %d %v answered %d, oracle says %d", i, op, res[j].Int, want)
			}
			j++
		case graph.OpSubtreeSum, graph.OpPathSum:
			if res[j] != replica[j] {
				bad.add("treedp-bursty: op %d %v answered %d, BackendSim replica %d", i, op, res[j].Int, replica[j].Int)
			}
			j++
		}
	}
	return bad.n, bad.err
}

func without(xs []int, x int) []int {
	for i, y := range xs {
		if y == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}
