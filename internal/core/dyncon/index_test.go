package dyncon

import (
	"testing"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// indexFixture builds a small CC structure on 8 machines whose shard 3
// holds tree records and non-tree anchors of its own component (3), while
// components 0 = {0, 8} and 2 (an implicit singleton) live elsewhere.
func indexFixture(t *testing.T, be mpc.BackendKind) *D {
	t.Helper()
	d := New(Config{N: 64, Mode: CC, Machines: 8, ExpectedEdges: 64, Backend: be, Workers: 1})
	for _, e := range [][2]int{{0, 8}, {3, 11}, {11, 19}, {3, 19}} {
		d.Insert(e[0], e[1], 1)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	sh := d.shards[3]
	if sh.comps[3] == nil || sh.comps[3].tree == nil || len(sh.anchors[3]) == 0 {
		t.Fatalf("fixture: shard 3 should hold tree records and anchors of component 3")
	}
	return d
}

// TestBroadcastTouchesOnlyNamedComponents pins the O(touched) property of
// the link and cut handlers: a kDoLink or kDoCut broadcast reaching a
// shard that holds no member or record of the components it names costs
// that shard no allocation — no scan of its own records, no reply of its
// own (the cut's miss reply is the orchestrator's shared payload). The
// measured run is the whole round on the parallel backend, whose steady
// state TestSteadyStateAllocsPerRound pins at zero allocations, so
// anything counted here is the handler's.
func TestBroadcastTouchesOnlyNamedComponents(t *testing.T) {
	d := indexFixture(t, mpc.BackendParallel)
	defer d.Close()
	const target, n = 3, 64
	before := stateFingerprint(d)

	link := &wire{
		Kind: kDoLink, U: 0, V: 2, Comp: 0, Comp2: 2, Q: 4, Ly: 0, Size: 3,
		Shifts: []etour.Shift{
			{Kind: etour.ShiftLinkHost, Comp: 0, NewComp: 0, A: 4, B: 0},
			{Kind: etour.ShiftLinkGuest, Comp: 2, NewComp: 0, A: 4, B: 0},
		},
		Pos: etour.EdgePos{U: 0, V: 2, UV: [2]int{5, 6}, VU: [2]int{7, 8}},
	}
	const compNew = n + 1000 // registered on machine 0
	cut := &wire{
		Kind: kDoCut, Seq: 999, U: 0, V: 8, Comp: 0, Comp2: compNew,
		Fy: 2, LyCut: 3, TourLen: 4, SubSize: 1, RestSize: 1, ReplyTo: 5,
		Shifts: []etour.Shift{
			{Kind: etour.ShiftCutRepair, Comp: 0, NewComp: compNew, A: 2, B: 3, C: 4},
			{Kind: etour.ShiftCutSub, Comp: 0, NewComp: compNew, A: 2, B: 3},
			{Kind: etour.ShiftCutRest, Comp: 0, NewComp: 0, A: 2, B: 3},
		},
		Miss: &wire{Kind: kCandidate, Seq: 999},
	}
	c := d.Cluster()
	for _, bc := range []struct {
		name string
		w    *wire
	}{{"kDoLink", link}, {"kDoCut", cut}} {
		deliver := func() {
			c.Send(mpc.Message{From: -1, To: target, Payload: bc.w, Words: bc.w.words()})
			c.Run(8)
		}
		for i := 0; i < 16; i++ { // warm the round engine's pools
			deliver()
		}
		if got := testing.AllocsPerRun(100, deliver); got != 0 {
			t.Errorf("%s on a shard holding none of its components: %.0f allocs per delivery, want 0", bc.name, got)
		}
	}
	if after := stateFingerprint(d); after != before {
		t.Fatal("broadcasts naming foreign components changed the shard state")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateChecksIndex: Validate refuses every way the per-component
// index can drift from the tree and non-tree records it mirrors.
func TestValidateChecksIndex(t *testing.T) {
	const foreign = 64 + 2000 // a label no vertex carries
	d := indexFixture(t, mpc.BackendSim)
	sh := d.shards[3]
	ge := graph.Edge{U: 3, V: 11}
	rec := sh.tree[ge]
	end := sh.anchors[3][0]
	unfile := func(comp int64) {
		e := sh.comps[comp]
		for p := &e.tree; *p != nil; p = &(*p).next {
			if *p == rec {
				*p = rec.next
				return
			}
		}
		t.Fatalf("record %v not filed under %d", ge, comp)
	}
	refile := func() {
		delete(sh.comps, foreign)
		sh.comps[3].file(rec)
	}
	for _, bc := range []struct {
		name          string
		corrupt, mend func()
	}{
		{"tree record dropped from its entry", func() { unfile(3) }, refile},
		{"tree record filed under a foreign component", func() { unfile(3); sh.entryFor(foreign).file(rec) }, func() { unfile(foreign); refile() }},
		{"tree record filed twice", func() { sh.entryFor(foreign).file(&treeRec{next: rec}) }, func() { delete(sh.comps, foreign) }},
		{"tree record the tree map does not hold", func() { delete(sh.tree, ge) }, func() { sh.tree[ge] = rec }},
		{"empty entry", func() { sh.comps[foreign] = &entry{} }, func() { delete(sh.comps, foreign) }},
		{"non-tree anchor dropped", func() { sh.anchors[3] = sh.anchors[3][1:] },
			func() { sh.anchors[3] = append([]ntEnd{end}, sh.anchors[3]...) }},
		{"non-tree anchor filed under a foreign component",
			func() { sh.anchors[3] = sh.anchors[3][1:]; sh.anchors[foreign] = []ntEnd{end} },
			func() { delete(sh.anchors, foreign); sh.anchors[3] = append([]ntEnd{end}, sh.anchors[3]...) }},
		{"non-tree anchor filed twice", func() { sh.anchors[3] = append(sh.anchors[3], end) },
			func() { sh.anchors[3] = sh.anchors[3][:len(sh.anchors[3])-1] }},
		{"empty anchor list", func() { sh.anchors[foreign] = []ntEnd{} }, func() { delete(sh.anchors, foreign) }},
	} {
		bc.corrupt()
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted a broken index: %s", bc.name)
		}
		bc.mend()
		if err := d.Validate(); err != nil {
			t.Fatalf("after mending %s: %v", bc.name, err)
		}
	}
}
