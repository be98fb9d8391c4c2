// Command perfbench is the repository's benchmark: three seeded op-stream
// workloads driven through the dmpc front door (Pipeline.Apply, and
// Ingestor.Push/Close), with every answer checked outside the timed
// section.
//
//	bash perfbench/run.sh --workload conn-churn --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// A run repeats the whole stream on fresh facades until --seconds of
// stream time are measured. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced passes,
// replays the windows directly on the core structure (dyncon or dmm)
// and on a single-threaded BackendSim, runs a bare-backend echo probe,
// prints the per-layer metrics and writes its spans as JSON lines under
// --out. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// The workloads run on BackendParallel with one worker per CPU, at the
// runtime's default GC settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	errs    []error
	samples map[string]int // sample counts behind percentile metrics
	rates   []float64      // ops/s of each untraced pass
}

func (r *result) fail(ops int, err error) {
	r.Correct = false
	r.Failed += ops
	r.errs = append(r.errs, err)
}

func (r *result) set(table []metric, name string, v float64) {
	for _, m := range table {
		if m.Name == name {
			r.Metrics[name] = value{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func main() {
	name := flag.String("workload", "", "workload: conn-churn, match-poisson, treedp-bursty or all")
	seed := flag.Int64("seed", 1, "seed the workload's stream is generated from")
	seconds := flag.Float64("seconds", 10, "stream time to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	all := &result{Correct: true, Metrics: map[string]value{}}
	for _, n := range names {
		w, err := newWorkload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		r, err := run(w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		report(os.Stdout, w.name, r)
		if len(names) == 1 {
			all = r
			break
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report prints one workload's metrics by name with their units.
func report(out io.Writer, workload string, r *result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "# %s: %d ops attempted, %d failed, error_rate %.4g\n", workload, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, k := range keys {
		v := r.Metrics[k]
		extra := ""
		if n, ok := r.samples[k]; ok {
			extra = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(out, "%-34s %14.6g %s%s\n", k, v.Value, v.Unit, extra)
	}
	if len(r.rates) > 0 {
		fmt.Fprintf(out, "# ops/s by pass: %.6g\n", r.rates)
	}
	for _, err := range r.errs {
		fmt.Fprintf(out, "! %v\n", err)
	}
}

// run measures one workload. It returns an error only when no pass
// could be measured at all.
func run(w *workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	ops, arr := w.generate(seed)
	r := &result{Correct: true, Metrics: map[string]value{}, samples: map[string]int{}}
	budget := time.Duration(seconds * float64(time.Second))

	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano()))
	}
	var plain, withSpans []*pass
	var measured time.Duration
	for i := 0; measured < budget || len(plain) == 0 || (traced && len(withSpans) == 0); i++ {
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
		}
		p, err := runPass(w, ops, arr, t)
		r.Attempted += len(ops)
		if err != nil {
			r.fail(len(ops), err)
			break
		}
		measured += p.wall
		if t != nil {
			withSpans = append(withSpans, p)
		} else {
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 || (traced && len(withSpans) == 0) {
		return nil, fmt.Errorf("%s: no pass completed: %v", w.name, r.errs)
	}
	first := plain[0]
	for _, p := range append(plain[1:], withSpans...) {
		if !samePass(first, p) {
			r.fail(len(ops), fmt.Errorf("%s: a repeated pass answered or accounted differently", w.name))
		}
	}
	if first.model.violations > 0 {
		r.fail(0, fmt.Errorf("%s: %d breaches of the per-machine bound S", w.name, first.model.violations))
	}

	// The BackendSim replica serves the tree-DP check and, in the traced
	// run, the single-threaded baseline of every workload.
	var serial replayed
	var serialErr error
	if traced || w.replica {
		serial, serialErr = replay(w, ops, first.st.Windows, mpc.BackendSim, 1, nil)
		if serialErr == nil {
			serialErr = serial.validate
		}
	}
	if wrong, err := checkAnswers(w, ops, first, serial.res, serialErr); err != nil {
		r.fail(wrong, err)
	}
	defer func() { r.Failed = min(r.Failed, r.Attempted) }()

	if !traced {
		endToEndMetrics(w, r, ops, plain)
		return r, nil
	}
	if serialErr == nil {
		serialErr = sameReplay(w, first, serial)
	}
	if serialErr != nil {
		r.fail(len(ops), serialErr)
	}
	par, err := replay(w, ops, first.st.Windows, w.backend, w.workers, tr)
	if err == nil {
		err = sameReplay(w, first, par)
	}
	if err != nil {
		r.fail(len(ops), err)
	}
	var pushes []time.Duration
	if w.window > 0 {
		pushes = applyPushes(ops, w.window, tr)
	} else {
		for _, p := range withSpans {
			pushes = append(pushes, p.pushes...)
		}
	}
	rounds := max(first.model.rounds, 1)
	es := tr.begin("mpc.echo", -1)
	echoUs, echoAllocs := echoProbe(first.model.machines, first.model.memWords,
		first.model.sumActive/rounds, first.model.messages/rounds, first.model.words/rounds,
		w.workers, time.Second)
	tr.end(es)

	self, err := tr.selfTimes()
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err == nil {
		err = tr.write(filepath.Join(out, fmt.Sprintf("perfbench-spans-%s-seed%d.jsonl", w.name, seed)), self)
	}
	if err != nil {
		r.fail(0, fmt.Errorf("%s: spans: %w", w.name, err))
	}
	perLayerMetrics(w, r, ops, first, plain, withSpans, par, serial, pushes, echoUs, echoAllocs)
	return r, nil
}

// samePass reports whether two passes over one stream gave the same
// answers and the same model accounting, as the determinism rule says
// they must.
func samePass(a, b *pass) bool {
	if !slices.Equal(a.res, b.res) || !slices.Equal(a.st.Latencies, b.st.Latencies) || a.model != b.model ||
		len(a.windows) != len(b.windows) {
		return false
	}
	if len(a.st.Windows) != len(b.st.Windows) {
		return false
	}
	for i := range a.st.Windows {
		if !a.st.Windows[i].Equal(b.st.Windows[i]) {
			return false
		}
	}
	return true
}

// sameReplay checks a direct replay against the facade pass it copies:
// answers and per-window accounting must be bit-identical.
func sameReplay(w *workload, p *pass, rp replayed) error {
	if !slices.Equal(p.res, rp.res) {
		return fmt.Errorf("%s: replay answers differ from the facade's", w.name)
	}
	for i := range rp.mixed {
		if !rp.mixed[i].Equal(p.st.Windows[i]) {
			return fmt.Errorf("%s: replay window %d accounting differs from the facade's", w.name, i)
		}
	}
	return nil
}

// endToEndMetrics reports the untraced passes: throughput over all of
// their stream time, and window percentiles over all of their windows.
func endToEndMetrics(w *workload, r *result, ops []graph.Op, plain []*pass) {
	first := plain[0]
	setups := setupTimes(w, plain)
	n := float64(len(ops))
	var wall time.Duration
	var windows, heaps []float64
	for _, p := range plain {
		wall += p.wall
		r.rates = append(r.rates, n/p.wall.Seconds())
		for _, d := range p.windows {
			windows = append(windows, float64(d.Nanoseconds())/1e6)
		}
		heaps = append(heaps, float64(p.heap)/1e6)
	}
	r.set(endToEnd, "setup_s", median(setups))
	r.samples["setup_s"] = len(setups)
	r.set(endToEnd, "ops_per_s", n*float64(len(plain))/wall.Seconds())
	r.set(endToEnd, "window_p50_ms", quantile(windows, 0.5))
	r.set(endToEnd, "window_p90_ms", quantile(windows, 0.9))
	r.samples["window_p50_ms"] = len(windows)
	r.samples["window_p90_ms"] = len(windows)
	r.set(endToEnd, "rounds_per_op", float64(first.st.Rounds)/n)
	r.set(endToEnd, "words_per_op", float64(first.model.words)/n)
	r.set(endToEnd, "latency_p50_rounds", float64(first.st.P50()))
	r.set(endToEnd, "latency_p99_rounds", float64(first.st.P99()))
	r.samples["latency_p50_rounds"] = len(first.st.Latencies)
	r.samples["latency_p99_rounds"] = len(first.st.Latencies)
	r.set(endToEnd, "heap_mb", median(heaps))
}

// setupTimes returns the passes' construction times plus extra
// constructions, so that set-up time is a median of several even when a
// few passes fill the run.
func setupTimes(w *workload, plain []*pass) []float64 {
	var out []float64
	for _, p := range plain {
		out = append(out, p.setup.Seconds())
	}
	var extra time.Duration
	for len(out) < 31 && extra < 500*time.Millisecond {
		runtime.GC()
		g0 := runtime.NumGoroutine()
		t0 := time.Now()
		f := w.newFacade()
		d := time.Since(t0)
		closeAndWait(f, g0)
		extra += d
		out = append(out, d.Seconds())
	}
	return out
}

func perLayerMetrics(w *workload, r *result, ops []graph.Op, first *pass, plain, withSpans []*pass,
	par, serial replayed, pushes []time.Duration, echoUs, echoAllocs float64) {
	n := float64(len(ops))
	st, m := first.st, first.model
	rounds := float64(max(m.rounds, 1))
	r.set(perLayer, "dmpc.windows", float64(st.Flushes))
	r.set(perLayer, "dmpc.ops_per_window", n/float64(max(st.Flushes, 1)))
	r.set(perLayer, "dmpc.flush_conflict", float64(st.FlushConflict))
	r.set(perLayer, "dmpc.flush_full", float64(st.FlushFull))
	r.set(perLayer, "dmpc.flush_age", float64(st.FlushAge))
	us := make([]float64, len(pushes))
	for i, d := range pushes {
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	r.set(perLayer, "dmpc.push_us_p50", quantile(us, 0.5))
	r.set(perLayer, "dmpc.push_us_p90", quantile(us, 0.9))
	r.samples["dmpc.push_us_p50"] = len(us)
	r.samples["dmpc.push_us_p90"] = len(us)

	r.set(perLayer, "sched.claims_ns_per_op", float64(par.claims.Nanoseconds())/n)
	r.set(perLayer, "sched.firstwave_us_per_window", float64(par.firstwave.Nanoseconds())/1e3/float64(max(len(par.mixed), 1)))
	r.set(perLayer, "sched.waves_per_window", float64(m.waves)/float64(max(len(st.Windows), 1)))
	r.set(perLayer, "sched.ops_per_wave", float64(m.waveOps)/float64(max(m.waves, 1)))
	r.set(perLayer, "sched.query_round_share", float64(m.qryRounds)/rounds)

	applyUs := float64(par.apply.Nanoseconds()) / 1e3 / float64(max(par.rounds, 1))
	for _, layer := range []string{"dyncon", "dmm"} {
		var newS, apply, handler float64
		if layer == w.layer() {
			newS, apply, handler = par.newTime.Seconds(), applyUs, applyUs-echoUs
		}
		r.set(perLayer, layer+".new_s", newS)
		r.set(perLayer, layer+".apply_us_per_round", apply)
		r.set(perLayer, layer+".handler_us_per_round", handler)
	}
	perVertex := 0.0
	if w.conn {
		perVertex = float64(par.heapBytes) / float64(w.n)
	}
	r.set(perLayer, "dyncon.heap_bytes_per_vertex", perVertex)

	r.set(perLayer, "mpc.machines", float64(m.machines))
	r.set(perLayer, "mpc.mem_words", float64(m.memWords))
	r.set(perLayer, "mpc.active_per_round", float64(m.sumActive)/rounds)
	r.set(perLayer, "mpc.messages_per_round", float64(m.messages)/rounds)
	r.set(perLayer, "mpc.words_per_round", float64(m.words)/rounds)
	r.set(perLayer, "mpc.peak_mem_frac", float64(m.peakMem)/float64(m.memWords))
	r.set(perLayer, "mpc.max_pair_words", float64(m.maxPair))
	r.set(perLayer, "mpc.comm_entropy", withSpans[0].entropy)
	r.set(perLayer, "mpc.commentropy_ms", float64(withSpans[0].entropyTime.Nanoseconds())/1e6)
	r.set(perLayer, "mpc.violations", float64(m.violations))
	r.set(perLayer, "mpc.echo_us_per_round", echoUs)
	r.set(perLayer, "mpc.echo_allocs_per_round", echoAllocs)
	r.set(perLayer, "mpc.serial_us_per_round", float64(serial.apply.Nanoseconds())/1e3/float64(max(serial.rounds, 1)))

	var gc gcDelta
	var plainWall, spanWall time.Duration
	for _, p := range plain {
		gc.cycles += p.gc.cycles
		gc.pauseNs += p.gc.pauseNs
		gc.mallocs += p.gc.mallocs
		gc.bytes += p.gc.bytes
		plainWall += p.wall
	}
	for _, p := range withSpans {
		spanWall += p.wall
	}
	k := float64(len(plain))
	r.set(perLayer, "gc.cycles", float64(gc.cycles)/k)
	r.set(perLayer, "gc.pause_ms", float64(gc.pauseNs)/1e6/k)
	r.set(perLayer, "gc.allocs_per_op", float64(gc.mallocs)/(n*k))
	r.set(perLayer, "gc.bytes_per_op", float64(gc.bytes)/(n*k))

	plainRate := n * k / plainWall.Seconds()
	spanRate := n * float64(len(withSpans)) / spanWall.Seconds()
	r.set(perLayer, "trace.overhead_pct", 100*(1-spanRate/plainRate))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
