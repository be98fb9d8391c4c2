package mpc

import (
	"fmt"
	"slices"
	"sort"
)

// BackendKind selects the execution backend of a Cluster — the runtime
// that owns message delivery and scheduling state and executes the
// machine-step loop. All backends are observationally identical: for the
// same machine programs and the same injected inputs they produce
// bit-identical answers, Stats accounting, and violation counts (pinned
// by the backend-equivalence suites over the committed fuzz corpora).
// They differ only in wall-clock time.
type BackendKind int

const (
	// BackendSim is the deterministic single-driver simulator loop: the
	// driver goroutine orchestrates every round, spawning short-lived
	// handler goroutines bounded by Config.Workers. It is the
	// correctness and accounting oracle every other backend is measured
	// against.
	BackendSim BackendKind = iota
	// BackendParallel is the goroutine-per-machine runtime: long-lived
	// worker goroutines (one per machine, sharded when µ exceeds the
	// worker cap) woken over channels each round, with a contiguous
	// per-round context slab staging outgoing messages lock-free per
	// sender and a deterministic ascending-id merge at the round
	// barrier. Same
	// answers and stats as BackendSim, measured in real time.
	BackendParallel
)

// String returns the CLI spelling of the backend kind.
func (k BackendKind) String() string {
	switch k {
	case BackendSim:
		return "sim"
	case BackendParallel:
		return "parallel"
	}
	return fmt.Sprintf("BackendKind(%d)", int(k))
}

// ParseBackend parses the CLI spelling of a backend kind ("sim" or
// "parallel").
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "sim":
		return BackendSim, nil
	case "parallel":
		return BackendParallel, nil
	}
	return BackendSim, fmt.Errorf("unknown backend %q (want sim or parallel)", s)
}

// Backend executes the machine-step loop of a Cluster: it owns the
// per-machine inboxes and next-round schedules, delivers externally
// injected messages, and runs one synchronous round at a time. The
// Cluster folds the returned RoundStats into its accounting windows; a
// backend must produce bit-identical RoundStats, Stats side effects
// (pair volumes, violations, peak memory) and machine state transitions for
// a given input history regardless of its execution strategy — the
// determinism rule that keeps every backend interchangeable with the
// BackendSim oracle.
type Backend interface {
	// Deliver enqueues an externally injected message for the next round.
	Deliver(msg Message)
	// Schedule marks machine id active in the next round.
	Schedule(id int)
	// Quiescent reports whether another Round would be a no-op.
	Quiescent() bool
	// Round executes one synchronous round and returns its statistics.
	Round() RoundStats
	// Close releases backend resources (long-lived worker goroutines).
	// The cluster must not Round after Close; Close is idempotent.
	Close()
}

// backendBase is the delivery, scheduling and staging state shared by
// every backend, plus the deterministic pre- and post-round phases. Only
// the handler-execution phase in between differs per backend, so the
// accounting-relevant code paths exist exactly once.
//
// Activation is sparse: the base incrementally maintains the exact set of
// machines with a nonempty inbox or a set schedule bit (pending, an
// unordered dirty-id buffer deduplicated through inPending), so a round
// costs O(active·log active + delivered) instead of the former O(µ) scan
// over every machine — the work-efficiency the model's O(1)-machines
// claims demand once µ grows past the handful of machines an update
// touches. Quiescent is a length check on the same buffer, O(1).
type backendBase struct {
	c       *Cluster
	inboxes [][]Message
	sched   []bool

	// pending holds exactly the ids with a nonempty inbox or schedule bit
	// (the Quiescent set), unordered; inPending deduplicates insertions.
	// active is the per-round ascending scratch pending is sorted into;
	// the two buffers swap every round, so neither is reallocated.
	pending   []int
	inPending []bool
	active    []int

	pool msgPool // retired inbox backing arrays, payload-cleared (pool.go)

	// debugActive, when set by tests, observes every round's active set
	// right after beginRound computes it — the strictly-ascending,
	// duplicate-free invariant settle's deterministic merge depends on.
	debugActive func([]int)
}

func newBackendBase(c *Cluster) backendBase {
	return backendBase{
		c:         c,
		inboxes:   make([][]Message, c.cfg.Machines),
		sched:     make([]bool, c.cfg.Machines),
		inPending: make([]bool, c.cfg.Machines),
	}
}

// markPending records that machine id now has pending input. Idempotent
// per round via the inPending marker.
func (b *backendBase) markPending(id int) {
	if !b.inPending[id] {
		b.inPending[id] = true
		b.pending = append(b.pending, id)
	}
}

// Deliver enqueues an externally injected message (Cluster.Send). An
// out-of-range destination, or a sender that is neither a machine nor
// -1 (external), is a model violation, not an index panic; injected
// words count toward the pair-communication distribution so CommEntropy
// sees the cluster's full traffic.
func (b *backendBase) Deliver(msg Message) {
	if msg.Words <= 0 {
		msg.Words = 1
	}
	if msg.To < 0 || msg.To >= len(b.inboxes) {
		b.c.violation("external send to invalid machine %d", msg.To)
		return
	}
	if msg.From < -1 || msg.From >= len(b.inboxes) {
		b.c.violation("external send from invalid machine %d", msg.From)
		return
	}
	b.c.stats.pairs.row(msg.From).add(msg.To, msg.Words, len(b.inboxes))
	b.inboxes[msg.To] = b.pool.grab(b.inboxes[msg.To], msg)
	b.markPending(msg.To)
}

// Schedule marks machine id active for the next round.
func (b *backendBase) Schedule(id int) {
	if !b.sched[id] {
		b.sched[id] = true
		b.markPending(id)
	}
}

// Quiescent reports whether no machine has pending messages or
// scheduling. The pending buffer is exactly that set, so this is O(1).
func (b *backendBase) Quiescent() bool {
	return len(b.pending) == 0
}

// beginRound computes the round's active set (ascending machine id) and
// the delivery statistics. The pending buffer *is* the active set — it
// just needs sorting — and the emptied scratch becomes the next round's
// pending buffer, so the swap allocates nothing. The inPending markers
// are cleared here: nothing can mark between beginRound and settle (the
// driver is synchronous and handlers stage through their Ctx), and
// settle's own staging re-marks the next round's receivers.
func (b *backendBase) beginRound() ([]int, RoundStats) {
	b.active, b.pending = b.pending, b.active[:0]
	slices.Sort(b.active)
	var rs RoundStats
	for _, id := range b.active {
		b.inPending[id] = false
		for _, m := range b.inboxes[id] {
			rs.Words += m.Words
			rs.Messages++
		}
	}
	rs.Active = len(b.active)
	if b.debugActive != nil {
		b.debugActive(b.active)
	}
	return b.active, rs
}

// sortInbox orders a machine's inbox deterministically: by sender, then
// per-sender sequence number. Ties (external messages share From -1 and
// seq 0) keep arrival order — both paths below are stable, so the result
// is backend-independent. Small inboxes, the overwhelmingly common case,
// take an allocation-free insertion sort instead of the reflective
// sort.SliceStable.
func sortInbox(inbox []Message) {
	if len(inbox) <= 32 {
		for i := 1; i < len(inbox); i++ {
			for j := i; j > 0 && msgLess(inbox[j], inbox[j-1]); j-- {
				inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
			}
		}
		return
	}
	sort.SliceStable(inbox, func(a, b int) bool { return msgLess(inbox[a], inbox[b]) })
}

func msgLess(a, b Message) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.seq < b.seq
}

// settle is the deterministic round barrier: it retires the consumed
// inboxes into the pool (payload-cleared) and clears the schedules,
// stages every active machine's outgoing messages and next-round
// schedules in ascending machine order — the merge order that keeps
// delivery, pair accounting and violations bit-identical across
// backends — charges each message to its sender's pair row, enforces the
// per-machine I/O cap, recycles each Ctx for the backend's slab, and
// folds memory accounting. ctxAt maps an active-set position (and its
// machine id) to the Ctx the handler ran with.
func (b *backendBase) settle(active []int, ctxAt func(i, id int) *Ctx) {
	for _, id := range active {
		b.inboxes[id] = b.pool.retire(b.inboxes[id])
		b.sched[id] = false
	}
	mu := len(b.inboxes)
	for i, id := range active {
		ctx := ctxAt(i, id)
		row := b.c.stats.pairs.row(id)
		sent := 0
		for _, msg := range ctx.out {
			sent += msg.Words
			if msg.To < 0 || msg.To >= mu {
				b.c.violation("machine %d sent to invalid machine %d", id, msg.To)
				continue
			}
			b.inboxes[msg.To] = b.pool.grab(b.inboxes[msg.To], msg)
			b.markPending(msg.To)
			row.add(msg.To, msg.Words, mu)
		}
		if sent > b.c.cfg.MemWords {
			b.c.violation("machine %d sent %d words in one round (cap %d)", id, sent, b.c.cfg.MemWords)
		}
		for _, s := range ctx.schedule {
			if !b.sched[s] {
				b.sched[s] = true
				b.markPending(s)
			}
		}
		ctx.recycle()
	}
	for _, id := range active {
		if mr, ok := b.c.machines[id].(MemReporter); ok {
			w := mr.MemWords()
			if w > b.c.stats.PeakMemWords {
				b.c.stats.PeakMemWords = w
			}
			if w > b.c.cfg.MemWords {
				b.c.violation("machine %d uses %d words (cap %d)", id, w, b.c.cfg.MemWords)
			}
		}
	}
}
