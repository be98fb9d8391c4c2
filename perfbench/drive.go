package main

import (
	"fmt"
	"runtime"
	"time"

	"dmpc"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// pass is one run of a workload's whole stream through a fresh facade.
type pass struct {
	setup   time.Duration   // facade construction
	wall    time.Duration   // the stream, construction excluded
	windows []time.Duration // wall time of each call that flushed a window
	pushes  []time.Duration // traced Ingest passes: Push calls that did not flush

	res   graph.Results
	st    mpc.StreamStats // for Apply windows, built the way an Ingestor would
	model model
	mates []int // match workloads: MateTable after the stream

	heap int64 // live heap the facade and its answers hold after the stream
	gc   gcDelta

	entropy     float64 // traced passes: Cluster.CommEntropy and its call time
	entropyTime time.Duration
}

// model is the cluster's own accounting after a pass. Every field
// repeats exactly for a given stream.
type model struct {
	machines, memWords        int
	rounds, messages, words   int
	peakMem, violations       int
	maxPair                   int
	sumActive                 int
	waves, waveOps, qryRounds int
}

func modelOf(cl *mpc.Cluster, st mpc.StreamStats) model {
	s := cl.Stats()
	m := model{
		machines: cl.Machines(), memWords: cl.MemWords(),
		rounds: s.Rounds, messages: s.Messages, words: s.Words,
		peakMem: s.PeakMemWords, violations: s.Violations,
		maxPair: cl.MaxPairWords(),
	}
	for _, win := range st.Windows {
		m.sumActive += win.Updates.SumActive + win.Queries.SumActive
		m.qryRounds += win.Queries.Rounds
		m.waves += len(win.Waves)
		for _, wv := range win.Waves {
			m.waveOps += wv.Updates + wv.Queries
		}
	}
	return m
}

// gcDelta is the change in runtime.MemStats over a pass's stream.
type gcDelta struct {
	cycles  uint32
	pauseNs uint64
	mallocs uint64
	bytes   uint64
}

func gcBetween(a, b *runtime.MemStats) gcDelta {
	return gcDelta{
		cycles:  b.NumGC - a.NumGC,
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
	}
}

// runPass builds a fresh facade and drives the whole stream through it.
// With a tracer it records the workload, setup, window and dmpc call
// spans; without one it only reads the clock when a window ends. A
// panic inside the program is returned as an error.
func runPass(w *workload, ops []graph.Op, arr []graph.Arrival, tr *tracer) (p *pass, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", w.name, r)
		}
	}()
	p = &pass{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := int64(m0.HeapAlloc)
	ws := tr.begin("workload", -1)
	ss := tr.begin("setup", ws)
	g0 := runtime.NumGoroutine()
	t0 := time.Now()
	f := w.newFacade()
	p.setup = time.Since(t0)
	tr.end(ss)
	defer closeAndWait(f, g0)

	runtime.ReadMemStats(&m0)
	start := time.Now()
	if w.window > 0 {
		p.applyWindows(f, ops, w.window, tr, ws)
	} else {
		p.ingest(f, arr, w.maxBatch, w.maxAge, tr, ws)
	}
	p.wall = time.Since(start)
	tr.end(ws)
	runtime.ReadMemStats(&m1)
	p.gc = gcBetween(&m0, &m1)

	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heap = int64(m1.HeapAlloc) - base
	p.model = modelOf(f.Cluster(), p.st)
	if tr != nil {
		t0 := time.Now()
		p.entropy = f.Cluster().CommEntropy()
		p.entropyTime = time.Since(t0)
	}
	if mm, ok := f.(*dmpc.MaximalMatching); ok {
		p.mates = mm.MateTable()
	}
	return p, nil
}

// closeAndWait closes a structure and waits, up to a second, until the
// goroutines its backend started have exited. Close only signals the
// parallel backend's workers; one still running keeps the whole
// structure reachable, and the next heap reading would count it.
func closeAndWait(c interface{ Close() }, goroutines int) {
	c.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// applyWindows submits the stream as Pipeline.Apply calls of k ops.
// Every op of a window arrives when the window is submitted, so its
// latency is the window's rounds.
func (p *pass) applyWindows(f dmpc.Pipeline, ops []graph.Op, k int, tr *tracer, parent int32) {
	for _, win := range graph.SplitOps(ops, k) {
		ws := tr.begin("window", parent)
		as := tr.begin("dmpc.apply", ws)
		t0 := time.Now()
		res, st := f.Apply(win)
		p.windows = append(p.windows, time.Since(t0))
		tr.end(as)
		tr.end(ws)
		p.res = append(p.res, res...)
		for range win {
			p.st.Latencies = append(p.st.Latencies, int64(st.Rounds()))
		}
		p.st.Ops += st.Ops
		p.st.Updates += st.Updates.Updates
		p.st.Queries += st.Queries.Queries
		p.st.Rounds += st.Rounds()
		p.st.Makespan += int64(st.Rounds())
		p.st.Flushes++
		p.st.FlushTail++
		p.st.Windows = append(p.st.Windows, st)
	}
}

// ingest pushes the arrivals, in time order, through an Ingestor. A
// Push flushed a window exactly when the forming set did not grow by
// one. A traced pass records one dmpc.push span per Push inside the
// span of the window it joined, and the tail window's dmpc.close.
func (p *pass) ingest(f dmpc.Pipeline, arr []graph.Arrival, maxBatch int, maxAge int64, tr *tracer, parent int32) {
	ing := dmpc.NewIngestor(dmpc.IngestorConfig{Pipeline: f, MaxBatch: maxBatch, MaxAge: maxAge})
	last := time.Now()
	ws := int32(-1)
	for _, a := range arr {
		if tr != nil && ws < 0 {
			ws = tr.begin("window", parent)
		}
		before := ing.Pending()
		ps := tr.begin("dmpc.push", ws)
		ing.Push(a)
		tr.end(ps)
		if ing.Pending() == before+1 {
			if tr != nil {
				p.pushes = append(p.pushes, tr.dur(ps))
			}
		} else {
			now := time.Now()
			p.windows = append(p.windows, now.Sub(last))
			last = now
			tr.end(ws)
			ws = -1
		}
	}
	tail := ing.Pending() > 0
	if tr != nil && ws < 0 && tail {
		ws = tr.begin("window", parent)
	}
	cp := ws
	if cp < 0 {
		cp = parent // a Close with nothing left to flush
	}
	cs := tr.begin("dmpc.close", cp)
	p.res, p.st = ing.Close()
	tr.end(cs)
	if tail {
		p.windows = append(p.windows, time.Since(last))
	}
	tr.end(ws)
}
