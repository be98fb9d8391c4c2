package dyncon

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"dmpc/internal/graph"
)

// memPinCase is one fixed stream of the MemWords pin: a committed
// FuzzTreeDPEquivalence corpus entry (selector and bytes, decoded as
// that harness does) or a longer fixed churn input, optionally loaded on
// top of a preprocessed graph, with the per-shard MemWords and the
// cluster's PeakMemWords the explicit-singleton representation charged
// for it.
type memPinCase struct {
	name       string
	sel        byte
	data       string
	preprocess bool

	final []int  // per-shard MemWords after the last window
	peak  int    // Stats.PeakMemWords
	hash  uint64 // FNV-64a of every window's per-shard MemWords line
}

var memPinCases = []memPinCase{
	{"path_all_kinds", 3, "\x00\x01\x02\x00\x02\x03\x00\x03\x04\x02\x02\x09\x02\x03\x07\x02\x04\x14\x06\x02\x04\x0a\x01\x04\x0e\x03\x00\x12\x01\x04", false,
		[]int{16, 23, 32, 28, 21, 12, 12}, 32, 0x4e0b0da9bfea764f},
	{"cut_then_requery", 1, "\x00\x01\x02\x00\x02\x03\x00\x03\x04\x02\x02\x09\x02\x03\x07\x02\x04\x14\x01\x02\x03\x06\x02\x04\x0a\x01\x04\x0a\x01\x02\x0e\x04\x00\x06\x04\x04", false,
		[]int{16, 23, 25, 23, 21, 12, 12}, 32, 0x6c78b0dca641b443},
	{"weight_on_just_linked", 0x85, "\x02\x05\xc8\x00\x05\x06\x02\x06\x06\x06\x06\x05\x00\x06\x07\x02\x07\x13\x0a\x05\x07\x0e\x05\x00\x0a\x05\x05\x06\x05\x05", false,
		[]int{25, 16, 16, 12, 12, 23, 28}, 28, 0xa76c95a9eb830466},
	{"mst_churn", 0x90, "abcabdabeacdbce?bcd?bceaXYaYZbZW", false,
		[]int{16, 28, 25, 19, 12, 12, 12}, 28, 0x8558984377526e86},
	{"mst_churn_preprocessed", 0x10, "abcabdabeacdbce?bcd?bceaXYaYZbZW", true,
		[]int{33, 59, 61, 52, 24, 22, 27}, 61, 0x7c46153ec4056418},
	{"long_churn_cc", 9, churnBytes(7), false,
		[]int{99, 102, 134, 63, 101, 101, 91}, 134, 0x6bec2517c4973de9},
	{"long_churn_mst_preprocessed", 0x8c, churnBytes(8), true,
		[]int{143, 118, 135, 132, 84, 74, 112}, 143, 0x48300200d033f7f5},
}

// churnBytes is a fixed 600-byte pseudo-random fuzz input (200 ops), long
// enough to link and cut most of the 24 vertices several times.
func churnBytes(seed int64) string {
	b := make([]byte, 600)
	rand.New(rand.NewSource(seed)).Read(b)
	return string(b)
}

// memPinRun drives one case, validating after every window, and returns
// the per-shard MemWords after every window (one line per window) and the
// cluster's PeakMemWords.
func memPinRun(t *testing.T, c memPinCase) (windows []string, peak int) {
	const n = 24
	qkinds := []graph.OpKind{
		graph.OpSetWeight, graph.OpSubtreeSum, graph.OpPathSum,
		graph.OpTreeTop, graph.OpConnected,
	}
	ops := graph.FuzzOps([]byte(c.data), n, 20, qkinds, false)
	cfg := Config{N: n, Mode: CC, ExpectedEdges: 160}
	if c.sel&0x80 != 0 {
		cfg.Mode = MST
	}
	d := New(cfg)
	if c.preprocess {
		d.Preprocess(graph.GNM(n, 14, 1, rand.New(rand.NewSource(5))))
	}
	k := 1 + int(c.sel&0x7f)%len(ops)
	record := func() {
		line := ""
		for _, sh := range d.shards {
			line += fmt.Sprintf("%d ", sh.MemWords())
		}
		windows = append(windows, line)
	}
	record()
	for _, chunk := range graph.SplitOps(ops, k) {
		d.ApplyOps(chunk)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		record()
	}
	return windows, d.Cluster().Stats().PeakMemWords
}

// TestMemWordsPinned: implicit singletons change only the runtime
// representation. MemWords still charges the paper's logical state — two
// words per owned vertex, two per registered component, singletons
// included — so every shard's MemWords after every window, and the
// cluster's PeakMemWords (what the S-bound violations read), stay exactly
// what the explicit representation charged for these fixed streams.
func TestMemWordsPinned(t *testing.T) {
	for _, c := range memPinCases {
		windows, peak := memPinRun(t, c)
		final := windows[len(windows)-1]
		if want := fmt.Sprint(c.final); "["+strings.TrimSpace(final)+"]" != want {
			t.Errorf("%s: final per-shard MemWords [%s], want %s", c.name, strings.TrimSpace(final), want)
		}
		if peak != c.peak {
			t.Errorf("%s: PeakMemWords %d, want %d", c.name, peak, c.peak)
		}
		h := fnv.New64a()
		for _, w := range windows {
			h.Write([]byte(w + "\n"))
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("%s: per-window MemWords hash %#x, want %#x", c.name, got, c.hash)
		}
	}
}

// TestImplicitSingletons: a fresh structure stores no per-vertex entries
// — every vertex is an implicit singleton, yet CompOf, MemWords and
// Validate see the explicit state — a link materialises exactly the two
// named vertices, and Validate refuses every way the implicit-singleton
// rule can break.
func TestImplicitSingletons(t *testing.T) {
	const n = 40
	d := New(Config{N: n, Mode: CC, ExpectedEdges: 80})
	mu := len(d.shards)
	for _, sh := range d.shards {
		if len(sh.comps) != 0 || len(sh.sizes) != 0 || sh.implicit != len(sh.labels) {
			t.Fatalf("machine %d: fresh shard holds %d comps and %d sizes entries, %d of %d implicit",
				sh.id, len(sh.comps), len(sh.sizes), sh.implicit, len(sh.labels))
		}
		if got, want := sh.MemWords(), 4*len(sh.labels); got != want {
			t.Fatalf("machine %d: fresh MemWords %d, want %d (2 vertex + 2 registry words per owned vertex)", sh.id, got, want)
		}
	}
	for v := 0; v < n; v++ {
		if c := d.CompOf(v); c != int64(v) {
			t.Fatalf("CompOf(%d) = %d on a fresh structure", v, c)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.Insert(3, 5, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	materialised := 0
	for _, sh := range d.shards {
		materialised += len(sh.labels) - sh.implicit
	}
	if materialised != 2 || d.CompOf(5) != 3 {
		t.Fatalf("after linking 3-5: %d materialised vertices, CompOf(5) = %d; want 2 and 3", materialised, d.CompOf(5))
	}

	const v = 7 // untouched
	owner := d.shards[v%mu]
	for _, bc := range []struct {
		name          string
		corrupt, mend func()
	}{
		{"comps entry", func() { owner.entryFor(v).verts = []int32{v} }, func() { delete(owner.comps, v) }},
		{"registry size", func() { owner.sizes[v] = 1 }, func() { delete(owner.sizes, v) }},
		{"label carried by another vertex", func() { d.shards[5%mu].setLabel(5, v) }, func() { d.shards[5%mu].setLabel(5, 3) }},
		{"implicit counter", func() { owner.implicit-- }, func() { owner.implicit++ }},
		{"demoted vertex still indexed", func() { owner3 := d.shards[3%mu]; owner3.labels[3/mu] = 0; owner3.implicit++ },
			func() { owner3 := d.shards[3%mu]; owner3.labels[3/mu] = 3 + 1; owner3.implicit-- }},
	} {
		bc.corrupt()
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted a broken implicit-singleton rule: %s", bc.name)
		}
		bc.mend()
		if err := d.Validate(); err != nil {
			t.Fatalf("after mending %s: %v", bc.name, err)
		}
	}
}
