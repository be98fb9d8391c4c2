package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestSplitOpsBoundaries pins the Chunk-style edge cases on the op-stream
// splitter: k <= 0 coerces to singleton chunks, empty input yields nil,
// k at or past the stream length yields one chunk, and k near MaxInt must
// not overflow the capacity expression.
func TestSplitOpsBoundaries(t *testing.T) {
	ops := []Op{OpIns(0, 1, 1), OpQConnected(0, 1), OpDel(0, 1), OpQComponentOf(2), OpIns(2, 3, 5)}
	cases := []struct {
		k     int
		sizes []int
	}{
		{math.MinInt, []int{1, 1, 1, 1, 1}},
		{-1, []int{1, 1, 1, 1, 1}},
		{0, []int{1, 1, 1, 1, 1}},
		{1, []int{1, 1, 1, 1, 1}},
		{2, []int{2, 2, 1}},
		{len(ops), []int{5}},
		{len(ops) + 1, []int{5}},
		{math.MaxInt, []int{5}},
	}
	for _, tc := range cases {
		got := SplitOps(ops, tc.k)
		if len(got) != len(tc.sizes) {
			t.Fatalf("k=%d: %d chunks, want %d", tc.k, len(got), len(tc.sizes))
		}
		var flat []Op
		for i, c := range got {
			if len(c) != tc.sizes[i] {
				t.Fatalf("k=%d: chunk %d has %d ops, want %d", tc.k, i, len(c), tc.sizes[i])
			}
			flat = append(flat, c...)
		}
		for i, o := range flat {
			if o != ops[i] {
				t.Fatalf("k=%d: op %d reordered: got %v, want %v", tc.k, i, o, ops[i])
			}
		}
	}
	if got := SplitOps(nil, 4); got != nil {
		t.Fatalf("SplitOps(nil) = %v, want nil", got)
	}
	if got := SplitOps([]Op{}, 4); got != nil {
		t.Fatalf("SplitOps(empty) = %v, want nil", got)
	}
}

// TestSplitOpsAllQueries pins that a read-only stream splits like any
// other — no special casing that could drop or reorder trailing reads.
func TestSplitOpsAllQueries(t *testing.T) {
	ops := make([]Op, 7)
	for i := range ops {
		ops[i] = OpQMateOf(i)
	}
	chunks := SplitOps(ops, 3)
	if len(chunks) != 3 || len(chunks[0]) != 3 || len(chunks[1]) != 3 || len(chunks[2]) != 1 {
		t.Fatalf("all-query split shapes wrong: %v", chunks)
	}
	seen := 0
	for _, c := range chunks {
		for _, o := range c {
			if o.U != seen {
				t.Fatalf("query order broken: got %d, want %d", o.U, seen)
			}
			seen++
		}
	}
}

// TestSplitOpsPreservesRelativeOrder pins, on random mixed streams, that
// concatenating the chunks reproduces the stream exactly — in particular
// the relative update/query order every equivalence argument rests on.
func TestSplitOpsPreservesRelativeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(60)
		ops := make([]Op, n)
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i] = OpIns(rng.Intn(8), rng.Intn(8), 1)
			case 1:
				ops[i] = OpDel(rng.Intn(8), rng.Intn(8))
			case 2:
				ops[i] = OpQConnected(rng.Intn(8), rng.Intn(8))
			default:
				ops[i] = OpQMateOf(rng.Intn(8))
			}
		}
		k := rng.Intn(n+3) - 1
		var flat []Op
		for _, c := range SplitOps(ops, k) {
			flat = append(flat, c...)
		}
		if len(flat) != len(ops) {
			t.Fatalf("trial %d (k=%d): %d ops after split, want %d", trial, k, len(flat), len(ops))
		}
		for i := range ops {
			if flat[i] != ops[i] {
				t.Fatalf("trial %d (k=%d): op %d changed: %v vs %v", trial, k, i, flat[i], ops[i])
			}
		}
	}
}

// TestCountOpsAndUpdateConversion pins the side counters and the
// update/query conversion guards.
func TestCountOpsAndUpdateConversion(t *testing.T) {
	ops := []Op{OpIns(0, 1, 2), OpQMatched(0, 1), OpDel(0, 1), OpQMateOf(1), OpQComponentOf(0)}
	u, q := CountOps(ops)
	if u != 2 || q != 3 {
		t.Fatalf("CountOps = (%d,%d), want (2,3)", u, q)
	}
	if up := ops[0].Update(); up.Op != Insert || up.U != 0 || up.V != 1 || up.W != 2 {
		t.Fatalf("insert conversion wrong: %v", up)
	}
	if up := ops[2].Update(); up.Op != Delete {
		t.Fatalf("delete conversion wrong: %v", up)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Update() on a query op did not panic")
		}
	}()
	ops[1].Update()
}

// TestMixedStreamTracksReadFrac pins the mixed-workload generator: updates
// keep their order and the realized read fraction lands on the target.
func TestMixedStreamTracksReadFrac(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	updates := RandomStream(32, 200, 0.6, 10, rng)
	ops := MixedStream(updates, 0.5, func(r *rand.Rand) Op {
		return OpQConnected(r.Intn(32), r.Intn(32))
	}, rng)
	var got []Update
	queries := 0
	for _, o := range ops {
		if o.IsQuery() {
			queries++
			continue
		}
		got = append(got, o.Update())
	}
	if len(got) != len(updates) {
		t.Fatalf("%d updates survived, want %d", len(got), len(updates))
	}
	for i := range got {
		if got[i] != updates[i] {
			t.Fatalf("update %d reordered: %v vs %v", i, got[i], updates[i])
		}
	}
	frac := float64(queries) / float64(len(ops))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("read fraction %.2f, want ~0.5", frac)
	}
}

// TestOpInRange: two-vertex kinds bound both endpoints; single-vertex
// kinds bound only U and ignore V.
func TestOpInRange(t *testing.T) {
	for _, c := range []struct {
		op   Op
		want bool
	}{
		{OpIns(0, 7, 1), true},
		{OpIns(0, 8, 1), false},
		{OpDel(-1, 2), false},
		{OpQConnected(7, 0), true},
		{OpQConnected(3, -1), false},
		{OpQMatched(8, 1), false},
		{OpQSubtreeSum(9, 1), false},
		{OpQPathSum(1, 2), true},
		{OpQComponentOf(7), true},
		{OpQComponentOf(8), false},
		{Op{Kind: OpMateOf, U: 2, V: 99}, true},
		{Op{Kind: OpTreeTop, U: -3}, false},
		{OpSetW(7, 5), true},
	} {
		if got := c.op.InRange(8); got != c.want {
			t.Errorf("%v.InRange(8) = %v, want %v", c.op, got, c.want)
		}
	}
}
