package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"dmpc"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// workload is one seeded op stream and the front door it is driven
// through. Streams are generated in this process; the facade only ever
// sees the generated ops.
type workload struct {
	name    string
	n       int // vertices
	updates int // structural updates per pass

	conn bool // Connectivity facade over dyncon; false = MaximalMatching over dmm

	// window > 0 applies the stream as Pipeline.Apply windows of that
	// many ops; otherwise the stream is pushed through an Ingestor with
	// the given bounds.
	window   int
	maxBatch int
	maxAge   int64

	backend mpc.BackendKind
	workers int

	// replica checks answers against a BackendSim replay of the same
	// windows, validated at the end, in every run, not only traced ones.
	replica bool

	gen func(w *workload, rng *rand.Rand) ([]graph.Op, []graph.Arrival)
}

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"conn-churn", "match-poisson", "treedp-bursty"}

// newWorkload returns a workload at its benchmark size on the parallel
// backend with one worker per CPU.
func newWorkload(name string) (*workload, error) {
	w := &workload{name: name, backend: mpc.BackendParallel, workers: runtime.NumCPU()}
	switch name {
	case "conn-churn":
		// Broadcast-heavy link/cut work at large n: dyncon construction
		// and link/cut handlers, mpc settle and pair-word folding, and
		// sched.Drive re-claiming between waves.
		w.n, w.updates, w.conn, w.window = 1_000_000, 6_400, true, 64
		w.gen = connChurnOps
	case "match-poisson":
		// Many small windows on few machines: per-push admission, per-
		// window fixed cost, per-round backend overhead and allocation
		// churn. Almost no dyncon work and almost no construction.
		w.n, w.updates, w.maxBatch, w.maxAge = 100_000, 8_000, 64, 32
		w.gen = matchPoissonOps
	case "treedp-bursty":
		// The dyncon layer under reads mixed with writes: read-shared
		// claims, tree-DP handlers and a giant component that serializes
		// waves.
		w.n, w.updates, w.conn, w.maxBatch, w.replica = 100_000, 6_000, true, 64, true
		w.gen = treedpBurstyOps
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// layer names the core package the workload's facade runs on.
func (w *workload) layer() string {
	if w.conn {
		return "dyncon"
	}
	return "dmm"
}

// generate builds the workload's ops and arrival schedule from the seed.
func (w *workload) generate(seed int64) ([]graph.Op, []graph.Arrival) {
	return w.gen(w, rand.New(rand.NewSource(seed)))
}

func (w *workload) options() []dmpc.Option {
	return []dmpc.Option{dmpc.WithBackend(w.backend), dmpc.WithWorkers(w.workers)}
}

// newFacade builds the front door the timed passes drive.
func (w *workload) newFacade() dmpc.Pipeline {
	if w.conn {
		return dmpc.NewConnectivity(w.n, 6*w.n, w.options()...)
	}
	return dmpc.NewMaximalMatching(w.n, 6*w.n, w.options()...)
}

// core is the part of dyncon.D and dmm.M the replay calls into.
type core interface {
	ApplyOps([]graph.Op) (graph.Results, mpc.MixedStats)
	StreamItem(graph.Op) sched.Item
	Cluster() *mpc.Cluster
	Close()
}

// newCore builds the core structure with the configuration newFacade
// gives it, on the given backend.
func (w *workload) newCore(be mpc.BackendKind, workers int) core {
	if w.conn {
		return dyncon.New(dyncon.Config{N: w.n, Mode: dyncon.CC, ExpectedEdges: 6 * w.n, Backend: be, Workers: workers})
	}
	return dmm.New(dmm.Config{N: w.n, CapEdges: 6 * w.n, Backend: be, Workers: workers})
}

// endpoints draws vertices for reads and weight writes. Half come from
// endpoints of earlier inserts and half uniformly from all n vertices:
// on a sparse graph of 10⁵–10⁶ vertices a uniform vertex is almost
// always isolated, so nearly every answer would be false or free and
// the answer checks would prove little.
type endpoints struct {
	n       int
	touched []int
	rng     *rand.Rand
}

func (e *endpoints) note(up graph.Update) {
	if up.Op == graph.Insert {
		e.touched = append(e.touched, up.U, up.V)
	}
}

func (e *endpoints) draw() int {
	if len(e.touched) > 0 && e.rng.Intn(2) == 0 {
		return e.touched[e.rng.Intn(len(e.touched))]
	}
	return e.rng.Intn(e.n)
}

// connChurnOps is a uniform insert/delete stream with one QConnected
// read per nine updates (10% reads), applied in windows of w.window ops.
func connChurnOps(w *workload, rng *rand.Rand) ([]graph.Op, []graph.Arrival) {
	ups := graph.RandomStream(w.n, w.updates, 0.55, 1, rng)
	ep := &endpoints{n: w.n, rng: rng}
	ops := make([]graph.Op, 0, len(ups)+len(ups)/9+1)
	reads := 0
	for i, up := range ups {
		ops = append(ops, graph.OpUpdate(up))
		ep.note(up)
		if 9*reads < i+1 {
			ops = append(ops, graph.OpQConnected(ep.draw(), ep.draw()))
			reads++
		}
	}
	return ops, nil
}

// matchPoissonOps follows every update of a uniform stream with one
// QMateOf read; ops arrive with Poisson gaps of mean 4 rounds.
func matchPoissonOps(w *workload, rng *rand.Rand) ([]graph.Op, []graph.Arrival) {
	ups := graph.RandomStream(w.n, w.updates, 0.55, 1, rng)
	ep := &endpoints{n: w.n, rng: rng}
	ops := make([]graph.Op, 0, 2*len(ups))
	for _, up := range ups {
		ops = append(ops, graph.OpUpdate(up))
		ep.note(up)
		ops = append(ops, graph.OpQMateOf(ep.draw()))
	}
	return ops, graph.PoissonArrivals(ops, 4, rng)
}

// treedpBurstyOps follows every update of a preferential-attachment
// stream with a vertex-weight write half the time and one tree-DP read,
// cycling SubtreeSum, PathSum and TreeTop. Ops arrive in bursts of 16
// with 48 idle rounds between bursts.
func treedpBurstyOps(w *workload, rng *rand.Rand) ([]graph.Op, []graph.Arrival) {
	ups := graph.PrefAttachStream(w.n, w.updates, 0.3, rng)
	ep := &endpoints{n: w.n, rng: rng}
	ops := make([]graph.Op, 0, 3*len(ups))
	for i, up := range ups {
		ops = append(ops, graph.OpUpdate(up))
		ep.note(up)
		if rng.Intn(2) == 0 {
			ops = append(ops, graph.OpSetW(ep.draw(), graph.Weight(rng.Intn(100))))
		}
		switch i % 3 {
		case 0:
			ops = append(ops, graph.OpQSubtreeSum(ep.draw(), ep.draw()))
		case 1:
			ops = append(ops, graph.OpQPathSum(ep.draw(), ep.draw()))
		case 2:
			ops = append(ops, graph.OpQTreeTop(ep.draw()))
		}
	}
	return ops, graph.BurstyArrivals(ops, 16, 0, 48)
}
