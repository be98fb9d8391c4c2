package main

// metric is one figure the benchmark reports. The end-to-end table is
// what a caller of the dmpc front door sees, from untraced runs; the
// per-layer table comes from the traced run. Moves names the end-to-end
// metric a per-layer metric should move, on which workload, and where it
// should stay flat. BENCHMARK.json lists the same names, units and
// bounds (TestBenchmarkJSONMatchesTables keeps them in step).
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Moves  string  // per-layer only
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "window_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "window_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_op", Unit: "rounds", Better: "lower", Bound: 0.12},
	{Name: "words_per_op", Unit: "words", Better: "lower", Bound: 0.05},
	{Name: "latency_p50_rounds", Unit: "rounds", Better: "lower", Bound: 0.15},
	{Name: "latency_p99_rounds", Unit: "rounds", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

const (
	onIngest = "latency_p99_rounds and rounds_per_op on match-poisson and treedp-bursty; flat on conn-churn"
	onClaims = "ops_per_s on conn-churn, where Drive re-claims on every wave, and on treedp-bursty"
	onWaves  = "rounds_per_op and latency_p99_rounds on treedp-bursty"
	onDyncon = "ops_per_s and window_p90_ms on conn-churn and treedp-bursty"
	onDMM    = "ops_per_s on match-poisson"
	onModel  = "explains words_per_op; a breach of S fails the run"
	onGC     = "ops_per_s and window_p90_ms on match-poisson; heap_mb on conn-churn"
)

var perLayer = []metric{
	{Name: "dmpc.windows", Unit: "count", Better: "lower", Moves: onIngest},
	{Name: "dmpc.ops_per_window", Unit: "ops", Better: "higher", Moves: onIngest},
	{Name: "dmpc.flush_conflict", Unit: "count", Better: "lower", Moves: onIngest},
	{Name: "dmpc.flush_full", Unit: "count", Better: "lower", Moves: onIngest},
	{Name: "dmpc.flush_age", Unit: "count", Better: "lower", Moves: onIngest},
	{Name: "dmpc.push_us_p50", Unit: "us", Better: "lower", Moves: "ops_per_s on match-poisson; flat on conn-churn"},
	{Name: "dmpc.push_us_p90", Unit: "us", Better: "lower", Moves: "ops_per_s on match-poisson; flat on conn-churn"},

	{Name: "sched.claims_ns_per_op", Unit: "ns", Better: "lower", Moves: onClaims},
	{Name: "sched.firstwave_us_per_window", Unit: "us", Better: "lower", Moves: onClaims},
	{Name: "sched.waves_per_window", Unit: "waves", Better: "lower", Moves: onWaves},
	{Name: "sched.ops_per_wave", Unit: "ops", Better: "higher", Moves: onWaves},
	{Name: "sched.query_round_share", Unit: "ratio", Better: "lower", Moves: onWaves},

	{Name: "dyncon.new_s", Unit: "s", Better: "lower", Moves: "setup_s on conn-churn; flat on match-poisson"},
	{Name: "dyncon.heap_bytes_per_vertex", Unit: "B", Better: "lower", Moves: "heap_mb on conn-churn; flat on match-poisson"},
	{Name: "dyncon.apply_us_per_round", Unit: "us", Better: "lower", Moves: onDyncon},
	{Name: "dyncon.handler_us_per_round", Unit: "us", Better: "lower", Moves: onDyncon + " (estimate: apply minus mpc.echo_us_per_round)"},

	{Name: "dmm.new_s", Unit: "s", Better: "lower", Moves: onDMM},
	{Name: "dmm.apply_us_per_round", Unit: "us", Better: "lower", Moves: onDMM},
	{Name: "dmm.handler_us_per_round", Unit: "us", Better: "lower", Moves: onDMM + " (estimate: apply minus mpc.echo_us_per_round)"},

	{Name: "mpc.machines", Unit: "count", Better: "lower", Moves: onModel},
	{Name: "mpc.mem_words", Unit: "words", Better: "lower", Moves: onModel},
	{Name: "mpc.active_per_round", Unit: "machines", Better: "lower", Moves: onModel},
	{Name: "mpc.messages_per_round", Unit: "messages", Better: "lower", Moves: onModel},
	{Name: "mpc.words_per_round", Unit: "words", Better: "lower", Moves: onModel},
	{Name: "mpc.peak_mem_frac", Unit: "ratio", Better: "lower", Moves: onModel},
	{Name: "mpc.max_pair_words", Unit: "words", Better: "lower", Moves: onModel},
	{Name: "mpc.comm_entropy", Unit: "bits", Better: "higher", Moves: onModel},
	{Name: "mpc.commentropy_ms", Unit: "ms", Better: "lower", Moves: onModel},
	{Name: "mpc.violations", Unit: "count", Better: "lower", Moves: onModel},
	{Name: "mpc.echo_us_per_round", Unit: "us", Better: "lower", Moves: "ops_per_s on match-poisson (many small rounds) and per word on conn-churn"},
	{Name: "mpc.echo_allocs_per_round", Unit: "allocs", Better: "lower", Moves: "ops_per_s on match-poisson"},
	{Name: "mpc.serial_us_per_round", Unit: "us", Better: "lower", Moves: "baseline: what the parallel backend buys, against the core apply_us_per_round"},

	{Name: "gc.cycles", Unit: "count", Better: "lower", Moves: onGC},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower", Moves: onGC},
	{Name: "gc.allocs_per_op", Unit: "allocs", Better: "lower", Moves: onGC},
	{Name: "gc.bytes_per_op", Unit: "B", Better: "lower", Moves: onGC},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none: ops_per_s lost by the traced passes against the untraced ones"},
}
