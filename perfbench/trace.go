package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmpc"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced passes share the traced code.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

func (t *tracer) dur(id int32) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children of one span run one after another, so their
// durations add up. It fails if a child does not lie inside its parent.
func (t *tracer) selfTimes() ([]int64, error) {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d %s [%d,%d] lies outside its parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		self[s.Parent] -= s.End - s.Start
	}
	for i, v := range self {
		if v < 0 {
			return nil, fmt.Errorf("span %d %s: children cover more than its duration", i, t.spans[i].Name)
		}
	}
	return self, nil
}

// write stores the spans as JSON lines, each with the run id and its
// self time.
func (t *tracer) write(path string, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		rec := struct {
			Run string `json:"run"`
			span
			Self int64 `json:"self_ns"`
		}{t.run, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// replayed is a replay of one pass's windows directly on a core
// structure, bypassing the facade.
type replayed struct {
	res       graph.Results
	mixed     []mpc.MixedStats
	newTime   time.Duration
	heapBytes int64 // live heap the construction added
	apply     time.Duration
	claims    time.Duration
	firstwave time.Duration
	rounds    int
	validate  error
}

// replay builds a fresh core with the facade's configuration on the
// given backend and applies the stream window by window, cutting it
// where the facade's windows were cut. With a tracer each window span
// holds a sched.claims span (StreamItem for every op of the window
// against the state before it), a sched.firstwave span (sched.FirstWave
// on those claims) and the core's apply span.
func replay(w *workload, ops []graph.Op, windows []mpc.MixedStats, be mpc.BackendKind, workers int, tr *tracer) (r replayed, err error) {
	defer func() {
		if x := recover(); x != nil {
			err = fmt.Errorf("%s replay: %v", w.name, x)
		}
	}()
	layer := w.layer()
	root := tr.begin("replay", -1)
	var h0, h1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&h0)
	ns := tr.begin(layer+".new", root)
	g0 := runtime.NumGoroutine()
	t0 := time.Now()
	c := w.newCore(be, workers)
	r.newTime = time.Since(t0)
	tr.end(ns)
	defer closeAndWait(c, g0)
	runtime.GC()
	runtime.ReadMemStats(&h1)
	r.heapBytes = int64(h1.HeapAlloc) - int64(h0.HeapAlloc)

	budget := c.Cluster().MemWords()
	items := make([]sched.Item, 0, 64)
	at := 0
	for _, win := range windows {
		chunk := ops[at : at+win.Ops]
		at += win.Ops
		ws := tr.begin("window", root)
		if tr != nil {
			cs := tr.begin("sched.claims", ws)
			items = items[:0]
			for _, op := range chunk {
				items = append(items, c.StreamItem(op))
			}
			tr.end(cs)
			fs := tr.begin("sched.firstwave", ws)
			sched.FirstWave(items, budget)
			tr.end(fs)
			r.claims += tr.dur(cs)
			r.firstwave += tr.dur(fs)
		}
		as := tr.begin(layer+".apply", ws)
		t1 := time.Now()
		res, st := c.ApplyOps(chunk)
		r.apply += time.Since(t1)
		tr.end(as)
		tr.end(ws)
		r.res = append(r.res, res...)
		r.mixed = append(r.mixed, st)
		r.rounds += st.Rounds()
	}
	tr.end(root)
	if at != len(ops) {
		return r, fmt.Errorf("%s replay: windows cover %d of %d ops", w.name, at, len(ops))
	}
	if v, ok := c.(interface{ Validate() error }); ok && w.replica {
		r.validate = v.Validate()
	}
	return r, nil
}

// echo forwards every message it receives to machine next, one block of
// active ids further on, so a fixed set of messages keeps circulating:
// every round has the same active machines, messages and words.
type echo struct{ next int }

func (e *echo) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, m := range inbox {
		ctx.Send(e.next, nil, m.Words)
	}
}

// echoProbe drives a bare cluster of µ machines with S words each, whose
// machines only forward messages, with `active` machines, `messages`
// messages and `words` words in every round. It measures what the
// backend costs per round with no algorithm in the handlers.
func echoProbe(machines, memWords, active, messages, words, workers int, budget time.Duration) (usPerRound, allocsPerRound float64) {
	if active < 1 {
		active = 1
	}
	if active > machines {
		active = machines
	}
	if messages < active {
		messages = active
	}
	per := words / messages
	if per < 1 {
		per = 1
	}
	g0 := runtime.NumGoroutine()
	cl := mpc.NewCluster(mpc.Config{Machines: machines, MemWords: memWords, Backend: mpc.BackendParallel, Workers: workers})
	defer closeAndWait(cl, g0)
	for id := 0; id < machines; id++ {
		cl.SetMachine(id, &echo{next: (id + active) % machines})
	}
	for j := 0; j < messages; j++ {
		cl.Send(mpc.Message{From: -1, To: j % active, Words: per})
	}
	for i := 0; i < 64; i++ {
		cl.Round()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rounds := 0
	for time.Since(start) < budget || rounds == 0 {
		for i := 0; i < 64; i++ {
			cl.Round()
		}
		rounds += 64
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / 1e3 / float64(rounds), float64(m1.Mallocs-m0.Mallocs) / float64(rounds)
}

// nullPipeline answers nothing and runs nothing. An Ingestor over it
// admits on bounds alone, as the Ingestor inside Pipeline.Apply does, so
// pushing a stream through one times the admission path Apply pays for
// each op.
type nullPipeline struct{}

func (nullPipeline) Apply(ops []dmpc.Op) (dmpc.Results, dmpc.MixedStats) {
	_, nq := graph.CountOps(ops)
	return make(dmpc.Results, nq), dmpc.MixedStats{Ops: len(ops)}
}
func (nullPipeline) Cluster() *dmpc.Cluster { return nil }
func (nullPipeline) Close()                 {}

// applyPushes times Push for every op of the stream, submitting each
// window of k ops at once to a fresh Ingestor over nullPipeline and
// closing it, the way Pipeline.Apply handles a window.
func applyPushes(ops []graph.Op, k int, tr *tracer) []time.Duration {
	var out []time.Duration
	root := tr.begin("dmpc.apply_admission", -1)
	for _, win := range graph.SplitOps(ops, k) {
		ing := dmpc.NewIngestor(dmpc.IngestorConfig{Pipeline: nullPipeline{}})
		for _, op := range win {
			ps := tr.begin("dmpc.push", root)
			ing.Push(dmpc.Arrival{Op: op})
			tr.end(ps)
			out = append(out, tr.dur(ps))
		}
		ing.Close()
	}
	tr.end(root)
	return out
}
