package dyncon

import (
	"fmt"
	"sort"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/treedp"
)

// Message kinds of the §5 protocol.
type kind int32

const (
	kUpdate      kind = iota // external update, delivered to owner(U)
	kInfoReq                 // orchestrator -> owner(v): report comp, f, l
	kInfoRep                 // owner -> orchestrator
	kSizeReq                 // orchestrator -> registry(comp)
	kSizeRep                 // registry -> orchestrator
	kDoLink                  // broadcast: apply link shifts, add tree record
	kAddNonTree              // orchestrator -> owners: store a non-tree record
	kDelNonTree              // orchestrator -> owner: drop a non-tree record
	kDoCut                   // broadcast: apply cut shifts, report candidates
	kCandidate               // machine -> orchestrator: replacement candidate
	kPathMaxReq              // broadcast (MST): report max tree edge on path
	kPathMaxRep              // machine -> orchestrator
	kQuery                   // external connectivity query at owner(u)
	kQueryFwd                // owner(u) -> owner(v)
	kCompQuery               // external component query at owner(v)
	kIntervalReq             // orchestrator -> record owner: child interval of a tree edge
	kIntervalRep
	kSetWeight // external vertex-weight write at owner(v) (tree DP)
	kDPSubtree // external subtree-sum query at owner(u)
	kDPPath    // external path-sum query at owner(u)
	kDPTop     // external tree-top query at owner(u)
	// kDPInfoReq mirrors kInfoReq for the DP orchestrations, which key
	// their pending state by query id — numerically overlapping the
	// update seq space — so the reply must route to qpend, never pend.
	kDPInfoReq
	kDPInfoRep
	kDPSumReq  // broadcast: sum weight records matching Span in Comp
	kDPSumRep  // machine -> DP orchestrator: one partial sum
	kDPPathReq // broadcast: sum weights on the au..av tree path in Comp
	kDPTopReq  // broadcast: local weight argmax over Comp's owned vertices
	kDPTopRep  // machine -> DP orchestrator: local argmax candidate
)

// wire is the single message payload of the protocol; Kind selects which
// fields are meaningful. Words charged per message reflect the populated
// field count, all O(1). Payloads travel as *wire and are read-only once
// sent: every recipient of a broadcast shares one payload instead of
// copying the whole struct out of the message.
type wire struct {
	Kind        kind
	U, V        int32
	ReplyTo     int32
	W           int64
	Seq         int64
	Comp, Comp2 int64
	F, L        int
	Size        int
	Q, Ly       int
	Fy, LyCut   int // cut interval
	TourLen     int
	SubSize     int
	RestSize    int
	Shifts      []etour.Shift
	Pos         etour.EdgePos
	Span        treedp.Span
	AnchorU     int
	AnchorV     int
	// Miss is a gather broadcast's shared "nothing here" reply, built
	// once by the orchestrator: a machine with nothing to report sends
	// it back as is instead of allocating its own.
	Miss      *wire
	Promote   bool
	Convert   bool // cut converts the edge to non-tree (MST swap)
	NoReplace bool
	Found     bool
	Flag      bool
}

func (w wire) words() int { return 16 + 5*len(w.Shifts) }

// treeRec is one tree edge's state: its four tour positions (etour.EdgePos,
// self-describing), the component and the operative weight. next links
// the records filed under the same component on this shard.
type treeRec struct {
	pos  etour.EdgePos
	comp int64
	w    int64
	next *treeRec
}

// ntRec is a non-tree edge: one anchor position and component per endpoint.
// Anchors are arbitrary surviving tour appearances of their endpoint; 0
// marks an endpoint that is currently a singleton (only possible while the
// record crosses a fresh cut, and then that endpoint is always a named
// endpoint of the healing link).
type ntRec struct {
	e      graph.Edge
	aU, aV int
	cU, cV int64
	w      int64
}

// ntEnd is one anchor of a non-tree record: its U end, or its V end when
// v is set. The shard files each anchor under that anchor's component.
type ntEnd struct {
	rec *ntRec
	v   bool
}

func (a ntEnd) anchor() (pos *int, comp *int64) {
	if a.v {
		return &a.rec.aV, &a.rec.cV
	}
	return &a.rec.aU, &a.rec.cU
}

func (a ntEnd) vertex() int32 {
	if a.v {
		return int32(a.rec.e.V)
	}
	return int32(a.rec.e.U)
}

// entry is one component's share of a shard: the owned vertices labeled
// with it and the tree records filed under it. A broadcast naming a
// component reads and re-files only that component's entry (and its
// non-tree anchors, filed alongside in shard.anchors), so its cost on a
// shard is O(records of the named components), not O(all records on the
// shard). Weight records have no list of their own: a weight's component
// is its vertex's label, so the weighted vertices of a component are the
// verts with a weights entry. The tree records form a list linked
// through treeRec.next, so filing a record allocates nothing. An entry
// exists exactly while it holds a vertex or a record.
type entry struct {
	verts []int32
	tree  *treeRec
}

// empty reports whether an entry holds nothing; a nil entry is empty.
func (e *entry) empty() bool {
	return e == nil || len(e.verts) == 0 && e.tree == nil
}

// file puts rec at the head of the entry's tree-record list.
func (e *entry) file(rec *treeRec) {
	rec.next = e.tree
	e.tree = rec
}

// pending tracks one in-flight orchestration at the coordinator-for-this-
// update (the owner of the update's first endpoint).
type pending struct {
	op    graph.Update
	stage int

	gotU, gotV   bool
	compU, compV int64
	fU, lU       int
	fV, lV       int

	gotSizeU, gotSizeV bool
	sizeU, sizeV       int

	// cut state
	cutEdge  graph.Edge
	cutW     int64
	cutComp  int64
	newComp  int64
	fy, ly   int
	subSize  int
	restSize int
	convert  bool

	// pathmax / candidate collection
	replies   int
	bestFound bool
	bestU     int32
	bestV     int32
	bestW     int64

	// after a swap-cut, link the pending edge
	relinkU, relinkV int32
	relinkW          int64
	relinkPromote    bool
}

const (
	stInfo = iota
	stSizes
	stPathMax
	stInterval
	stSizeForCut
	stCandidates
	stInfoRelink
	stSizeForSwapCut
)

type shard struct {
	id, mu int
	cfg    Config

	// labels is the dense component-label table of the owned vertices
	// (v = id + i·µ at index i = v/µ), storing label+1. The zero value
	// marks an implicit singleton: a vertex no link has touched is its
	// own size-1 component labeled by its id, with no comps or
	// sizes entry, so an empty graph costs one zeroed word per vertex
	// and nothing else. A vertex materialises (gets a stored label) the
	// first time a link names its component, and never goes back.
	labels []int64
	// implicit counts the owned vertices still implicit singletons.
	// Their registry machine is their owner (comp v lives at v mod µ),
	// so MemWords charges their registry words here.
	implicit int
	// comps and anchors are the per-component index: one entry per
	// component this shard holds a vertex or tree record of, and one
	// list per component its non-tree anchors lie in (a separate map, so
	// that the many shards and components without non-tree records pay
	// nothing for them). The verts lists are the inverse of labels over
	// materialised components. The index is a runtime cache derived from
	// labels, tree and nontree: it never changes messages, stats or
	// MemWords, which charge for the logical state only. Both maps are
	// allocated on first use.
	comps        map[int64]*entry
	anchors      map[int64][]ntEnd
	tree         map[graph.Edge]*treeRec
	nontree      map[graph.Edge]*ntRec
	sizes        map[int64]int   // registry: materialised components only
	queryResults map[int64]bool  // connectivity answers, gathered driver-side
	compResults  map[int64]int64 // component answers, gathered driver-side
	pend         map[int64]*pending
	qcomp        map[int64]int64 // in-flight query: seq -> comp(u)

	// Tree-DP state (internal/treedp): one weight record per owned
	// weighted vertex, repaired on every link/cut broadcast; DP query
	// orchestration state and answers, keyed by query id. qpend is
	// deliberately separate from pend: query ids and update seqs are
	// drawn from distinct counters that overlap numerically.
	weights   map[int32]*treedp.Rec
	qpend     map[int64]*dpPending
	dpResults map[int64]int64 // DP answers, gathered driver-side
}

func newShard(id, mu int, cfg Config) *shard {
	owned := 0
	if id < cfg.N {
		owned = (cfg.N-id-1)/mu + 1
	}
	return &shard{
		id: id, mu: mu, cfg: cfg,
		labels:       make([]int64, owned),
		implicit:     owned,
		tree:         make(map[graph.Edge]*treeRec),
		nontree:      make(map[graph.Edge]*ntRec),
		sizes:        make(map[int64]int),
		queryResults: make(map[int64]bool),
		compResults:  make(map[int64]int64),
		pend:         make(map[int64]*pending),
		qcomp:        make(map[int64]int64),
		weights:      make(map[int32]*treedp.Rec),
		qpend:        make(map[int64]*dpPending),
		dpResults:    make(map[int64]int64),
	}
}

func (s *shard) owner(v int32) int         { return int(v) % s.mu }
func (s *shard) registry(comp int64) int32 { return int32(comp % int64(s.mu)) }

// MemWords charges the paper's logical state, not the runtime
// representation: two words per owned vertex and two per registered
// component, implicit singletons included.
func (s *shard) MemWords() int {
	return 2*len(s.labels) + 7*len(s.tree) + 7*len(s.nontree) + 2*(len(s.sizes)+s.implicit) + 4*len(s.weights)
}

// label returns owned vertex v's component label.
func (s *shard) label(v int32) int64 {
	if l := s.labels[int(v)/s.mu]; l != 0 {
		return l - 1
	}
	return int64(v)
}

// setLabel stores owned vertex v's label, materialising v if it was an
// implicit singleton.
func (s *shard) setLabel(v int32, comp int64) {
	slot := &s.labels[int(v)/s.mu]
	if *slot == 0 {
		s.implicit--
	}
	*slot = comp + 1
}

// implicitHere reports whether comp is an implicit singleton whose
// vertex this shard owns — and therefore also registers.
func (s *shard) implicitHere(comp int64) bool {
	return comp < int64(s.cfg.N) && s.owner(int32(comp)) == s.id && s.labels[int(comp)/s.mu] == 0
}

// members returns the owned vertices labeled comp: the verts of a
// materialised component's entry, or the vertex itself for an implicit
// singleton.
func (s *shard) members(comp int64) []int32 {
	if e, ok := s.comps[comp]; ok {
		return e.verts
	}
	if s.implicitHere(comp) {
		return []int32{int32(comp)}
	}
	return nil
}

// treeOf returns the head of the tree records filed under comp.
func (s *shard) treeOf(comp int64) *treeRec {
	if e, ok := s.comps[comp]; ok {
		return e.tree
	}
	return nil
}

// entryFor returns comp's entry, creating it on first use.
func (s *shard) entryFor(comp int64) *entry {
	if e, ok := s.comps[comp]; ok {
		return e
	}
	if s.comps == nil {
		s.comps = make(map[int64]*entry)
	}
	e := &entry{}
	s.comps[comp] = e
	return e
}

// detach takes comp's entry and non-tree anchors out of the index (nil
// when the shard holds none), for a broadcast to re-file their records.
func (s *shard) detach(comp int64) (*entry, []ntEnd) {
	e, nt := s.comps[comp], s.anchors[comp]
	delete(s.comps, comp)
	delete(s.anchors, comp)
	return e, nt
}

// attach files a detached entry and anchor list back under comp,
// dropping whichever is empty.
func (s *shard) attach(comp int64, e *entry, nt []ntEnd) {
	if !e.empty() {
		if s.comps == nil {
			s.comps = make(map[int64]*entry)
		}
		s.comps[comp] = e
	}
	if len(nt) > 0 {
		if s.anchors == nil {
			s.anchors = make(map[int64][]ntEnd)
		}
		s.anchors[comp] = nt
	}
}

// addTree stores a tree record and files it under its component.
func (s *shard) addTree(rec *treeRec) {
	s.tree[graph.Edge{U: rec.pos.U, V: rec.pos.V}] = rec
	s.entryFor(rec.comp).file(rec)
}

// addNonTree stores a non-tree record and files both its anchors.
func (s *shard) addNonTree(rec *ntRec) {
	s.nontree[rec.e] = rec
	for _, end := range [2]ntEnd{{rec, false}, {rec, true}} {
		_, c := end.anchor()
		s.attach(*c, nil, append(s.anchors[*c], end))
	}
}

// delNonTree drops a non-tree record and unfiles its anchors; it reports
// whether the record existed.
func (s *shard) delNonTree(ge graph.Edge) bool {
	rec, ok := s.nontree[ge]
	if !ok {
		return false
	}
	delete(s.nontree, ge)
	for _, end := range [2]ntEnd{{rec, false}, {rec, true}} {
		_, c := end.anchor()
		nt := s.anchors[*c]
		for i, a := range nt {
			if a == end {
				nt[i] = nt[len(nt)-1]
				nt = nt[:len(nt)-1]
				break
			}
		}
		if len(nt) == 0 {
			delete(s.anchors, *c)
		} else {
			s.anchors[*c] = nt
		}
	}
	return true
}

// refiler files the records of detached entries, once a broadcast has
// shifted them, under the components they land in. A link or a cut
// names the only two components its records can land in, and the
// refiler holds their entries and anchor lists, so filing costs no index
// lookup; attach puts them back. Handing it an anchor list whose held
// copy is emptied to length 0 re-files that list in place: anchors are
// written back no faster than they are read.
type refiler struct {
	s    *shard
	comp [2]int64
	dst  [2]*entry
	nt   [2][]ntEnd
}

// slot returns the index of comp among the held components.
func (r *refiler) slot(comp int64) int {
	for i, c := range r.comp {
		if c == comp {
			return i
		}
	}
	panic(fmt.Sprintf("dyncon: a broadcast moved a record into component %d, outside the components %v it names", comp, r.comp))
}

func (r *refiler) to(comp int64) *entry {
	i := r.slot(comp)
	if r.dst[i] == nil {
		r.dst[i] = &entry{}
	}
	return r.dst[i]
}

// vert labels owned vertex v comp and files it there.
func (r *refiler) vert(comp int64, v int32) {
	r.s.setLabel(v, comp)
	e := r.to(comp)
	e.verts = append(e.verts, v)
}

func (r *refiler) attach() {
	for i, c := range r.comp {
		r.s.attach(c, r.dst[i], r.nt[i])
	}
}

// tree shifts and re-files a detached list of tree records, dropping
// drop. All four positions of a record shift together.
func (r *refiler) tree(shifts []etour.Shift, rec, drop *treeRec) {
	for rec != nil {
		next := rec.next
		if rec != drop {
			applyChainRec(shifts, rec)
			r.to(rec.comp).file(rec)
		}
		rec = next
	}
}

// anchors shifts and re-files non-tree anchors, skipping drop's. Under a
// link, singleton anchors of the named endpoints receive their fresh
// positions: x appears at q+1, y at q+2 (a singleton's component can
// only be linked through its own vertex, so the names always cover
// anchor value 0).
func (r *refiler) anchors(w *wire, ends []ntEnd, drop *ntRec) {
	for _, end := range ends {
		if end.rec == drop {
			continue
		}
		a, c := end.anchor()
		*a, *c = applyChain(w.Shifts, *a, *c)
		if *a == 0 && w.Kind == kDoLink {
			if v := end.vertex(); v == w.U && *c == w.Comp {
				*a = w.Q + 1
			} else if v == w.V && *c == w.Comp2 {
				*a, *c = w.Q+2, w.Comp
			}
		}
		i := r.slot(*c)
		r.nt[i] = append(r.nt[i], end)
	}
}

// size returns the registry size of a component registered here.
func (s *shard) size(comp int64) int {
	if s.implicitHere(comp) {
		return 1
	}
	return s.sizes[comp]
}

// flOf computes f(v), l(v) from the locally stored tree records — the
// on-demand computation §5 prescribes. Zero values mean singleton.
func (s *shard) flOf(v int32) (f, l int) {
	for rec := s.treeOf(s.label(v)); rec != nil; rec = rec.next {
		if int32(rec.pos.U) != v && int32(rec.pos.V) != v {
			continue
		}
		p := posOf(&rec.pos, int(v))
		for _, i := range p {
			if f == 0 || i < f {
				f = i
			}
			if i > l {
				l = i
			}
		}
	}
	return f, l
}

func posOf(e *etour.EdgePos, v int) [2]int {
	if v == e.U {
		return [2]int{e.UV[0], e.VU[1]}
	}
	return [2]int{e.UV[1], e.VU[0]}
}

// applyChain runs the shift list over one position with its component
// label, honoring per-shift component conditioning and relabeling.
func applyChain(shifts []etour.Shift, pos int, comp int64) (int, int64) {
	if pos == 0 {
		return pos, comp // singleton anchors are fixed by named-endpoint rules only
	}
	for _, sh := range shifts {
		if comp != sh.Comp {
			continue
		}
		moved := sh.Moves(pos)
		pos = sh.Apply(pos)
		if moved {
			comp = sh.NewComp
		}
	}
	return pos, comp
}

// applyChainRec shifts all four positions of a tree record. The positions
// of one record always sit on the same side of any cut interval and share
// one component trajectory, so the relabel computed for the first position
// applies to the record.
func applyChainRec(shifts []etour.Shift, rec *treeRec) {
	var c int64
	rec.pos.UV[0], c = applyChain(shifts, rec.pos.UV[0], rec.comp)
	rec.pos.UV[1], _ = applyChain(shifts, rec.pos.UV[1], rec.comp)
	rec.pos.VU[0], _ = applyChain(shifts, rec.pos.VU[0], rec.comp)
	rec.pos.VU[1], _ = applyChain(shifts, rec.pos.VU[1], rec.comp)
	rec.comp = c
}

func (s *shard) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, m := range inbox {
		w, ok := m.Payload.(*wire)
		if !ok {
			continue
		}
		switch w.Kind {
		case kUpdate:
			s.startUpdate(ctx, w)
		case kInfoReq:
			f, l := s.flOf(w.U)
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kInfoRep, U: w.U, Seq: w.Seq,
				Comp: s.label(w.U), F: f, L: l,
			}, 7)
		case kInfoRep:
			s.onInfo(ctx, w)
		case kSizeReq:
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kSizeRep, Comp: w.Comp, Seq: w.Seq, Size: s.size(w.Comp),
			}, 5)
		case kSizeRep:
			s.onSize(ctx, w)
		case kDoLink:
			s.onDoLink(ctx, w)
		case kAddNonTree:
			e := graph.NormEdge(int(w.U), int(w.V))
			au, av := w.AnchorU, w.AnchorV
			if e.U != int(w.U) {
				au, av = av, au
			}
			s.addNonTree(&ntRec{e: e, aU: au, aV: av, cU: w.Comp, cV: w.Comp, w: w.W})
		case kDelNonTree:
			s.delNonTree(graph.NormEdge(int(w.U), int(w.V)))
		case kDoCut:
			s.onDoCut(ctx, w)
		case kCandidate:
			s.onCandidate(ctx, w)
		case kPathMaxReq:
			s.onPathMaxReq(ctx, w)
		case kPathMaxRep:
			s.onPathMaxRep(ctx, w)
		case kQuery:
			ctx.Send(s.owner(w.V), &wire{
				Kind: kQueryFwd, U: w.U, V: w.V, Seq: w.Seq, Comp: s.label(w.U),
			}, 5)
		case kQueryFwd:
			s.queryResults[w.Seq] = s.label(w.V) == w.Comp
		case kCompQuery:
			s.compResults[w.Seq] = s.label(w.V)
		case kIntervalReq:
			s.onIntervalReq(ctx, w)
		case kIntervalRep:
			s.onIntervalRep(ctx, w)
		case kSetWeight:
			s.onSetWeight(w)
		case kDPSubtree:
			s.onDPSubtree(ctx, w)
		case kDPPath:
			s.onDPPath(ctx, w)
		case kDPTop:
			s.onDPTop(ctx, w)
		case kDPInfoReq:
			f, l := s.flOf(w.U)
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kDPInfoRep, U: w.U, Seq: w.Seq,
				Comp: s.label(w.U), F: f, L: l,
			}, 7)
		case kDPInfoRep:
			s.onDPInfo(ctx, w)
		case kDPSumReq:
			s.onDPSumReq(ctx, w)
		case kDPSumRep:
			s.onDPSumRep(w)
		case kDPPathReq:
			s.onDPPathReq(ctx, w)
		case kDPTopReq:
			s.onDPTopReq(ctx, w)
		case kDPTopRep:
			s.onDPTopRep(w)
		}
	}
}

// startUpdate begins orchestration at the owner of the update's endpoint.
// Deletes are marked by w.Flag.
func (s *shard) startUpdate(ctx *mpc.Ctx, w *wire) {
	e := graph.NormEdge(int(w.U), int(w.V))
	if w.U == w.V {
		return
	}
	if !w.Flag {
		// Duplicate check: the orchestrator owns U and hence every record
		// incident to U.
		if _, dup := s.tree[e]; dup {
			return
		}
		if _, dup := s.nontree[e]; dup {
			return
		}
		p := &pending{op: graph.Update{Op: graph.Insert, U: int(w.U), V: int(w.V), W: graph.Weight(w.W)}, stage: stInfo}
		s.pend[w.Seq] = p
		s.sendInfoReqs(ctx, w.Seq, w.U, w.V)
		return
	}
	// Delete.
	if s.delNonTree(e) {
		if s.owner(int32(e.V)) != s.id || s.owner(int32(e.U)) != s.id {
			other := s.owner(int32(e.V))
			if other == s.id {
				other = s.owner(int32(e.U))
			}
			ctx.Send(other, &wire{Kind: kDelNonTree, U: int32(e.U), V: int32(e.V)}, 3)
		}
		return
	}
	rec, ok := s.tree[e]
	if !ok {
		return // unknown edge
	}
	// Tree edge: identify the child interval from the inner position pair.
	fy, ly := childInterval(&rec.pos)
	p := &pending{
		op:      graph.Update{Op: graph.Delete, U: int(w.U), V: int(w.V)},
		stage:   stSizeForCut,
		cutEdge: e, cutW: rec.w, cutComp: rec.comp,
		fy: fy, ly: ly,
		newComp: int64(s.cfg.N) + 2*w.Seq,
	}
	s.pend[w.Seq] = p
	ctx.Send(int(s.registry(rec.comp)), &wire{
		Kind: kSizeReq, Comp: rec.comp, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

// childInterval extracts the child endpoint's [f,l] from an edge record:
// the inner pair of its four positions.
func childInterval(e *etour.EdgePos) (fy, ly int) {
	ps := []int{e.UV[0], e.UV[1], e.VU[0], e.VU[1]}
	sort.Ints(ps)
	return ps[1], ps[2]
}

func (s *shard) sendInfoReqs(ctx *mpc.Ctx, seq int64, u, v int32) {
	ctx.Send(s.owner(u), &wire{Kind: kInfoReq, U: u, Seq: seq, ReplyTo: int32(s.id)}, 4)
	ctx.Send(s.owner(v), &wire{Kind: kInfoReq, U: v, Seq: seq, ReplyTo: int32(s.id)}, 4)
}

func (s *shard) onInfo(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok {
		return
	}
	var u, v int32
	if p.stage == stInfoRelink {
		u, v = p.relinkU, p.relinkV
	} else {
		u, v = int32(p.op.U), int32(p.op.V)
	}
	if w.U == u {
		p.gotU, p.compU, p.fU, p.lU = true, w.Comp, w.F, w.L
	}
	if w.U == v {
		p.gotV, p.compV, p.fV, p.lV = true, w.Comp, w.F, w.L
	}
	if !p.gotU || !p.gotV {
		return
	}
	switch p.stage {
	case stInfo:
		if p.compU == p.compV {
			if s.cfg.Mode == MST {
				// Look for a heavier tree edge on the cycle.
				p.stage = stPathMax
				p.replies = 0
				p.bestFound = false
				ctx.Broadcast(&wire{
					Kind: kPathMaxReq, Seq: w.Seq, Comp: p.compU,
					F: p.fU, L: p.lU, Fy: p.fV, LyCut: p.lV,
					ReplyTo: int32(s.id),
					Miss:    &wire{Kind: kPathMaxRep, Seq: w.Seq},
				}, 9, true)
				return
			}
			s.sendAddNonTree(ctx, int32(p.op.U), int32(p.op.V), int64(p.op.W), p.compU, p.fU, p.fV)
			delete(s.pend, w.Seq)
			return
		}
		p.stage = stSizes
		s.sendSizeReqs(ctx, w.Seq, p.compU, p.compV)
	case stInfoRelink:
		// Sizes of both components are already known from the cut.
		sizeU, sizeV := p.restSize, p.subSize
		if p.compU == p.newComp {
			sizeU, sizeV = p.subSize, p.restSize
		}
		s.broadcastLink(ctx, w.Seq, p.relinkU, p.relinkV, p.relinkW,
			p.compU, p.compV, sizeU, sizeV, p.fU, p.lU, p.fV, p.lV, p.relinkPromote)
		delete(s.pend, w.Seq)
	}
}

func (s *shard) sendSizeReqs(ctx *mpc.Ctx, seq int64, compU, compV int64) {
	ctx.Send(int(s.registry(compU)), &wire{Kind: kSizeReq, Comp: compU, Seq: seq, ReplyTo: int32(s.id)}, 5)
	ctx.Send(int(s.registry(compV)), &wire{Kind: kSizeReq, Comp: compV, Seq: seq, ReplyTo: int32(s.id)}, 5)
}

func (s *shard) sendAddNonTree(ctx *mpc.Ctx, u, v int32, w int64, comp int64, au, av int) {
	msg := wire{Kind: kAddNonTree, U: u, V: v, W: w, Comp: comp, AnchorU: au, AnchorV: av}
	ctx.Send(s.owner(u), &msg, 8)
	if s.owner(v) != s.owner(u) {
		ctx.Send(s.owner(v), &msg, 8)
	}
}

func (s *shard) onSize(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok {
		return
	}
	switch p.stage {
	case stSizes:
		if w.Comp == p.compU {
			p.gotSizeU, p.sizeU = true, w.Size
		}
		if w.Comp == p.compV {
			p.gotSizeV, p.sizeV = true, w.Size
		}
		if !p.gotSizeU || !p.gotSizeV {
			return
		}
		s.broadcastLink(ctx, w.Seq, int32(p.op.U), int32(p.op.V), int64(p.op.W),
			p.compU, p.compV, p.sizeU, p.sizeV, p.fU, p.lU, p.fV, p.lV, false)
		delete(s.pend, w.Seq)
	case stSizeForCut, stSizeForSwapCut:
		size := w.Size
		L := 4 * (size - 1)
		p.subSize = (p.ly-p.fy-1)/4 + 1
		p.restSize = size - p.subSize
		shifts := []etour.Shift{
			{Kind: etour.ShiftCutRepair, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly, C: L},
			{Kind: etour.ShiftCutSub, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly},
			{Kind: etour.ShiftCutRest, Comp: p.cutComp, NewComp: p.cutComp, A: p.fy, B: p.ly},
		}
		p.replies = 0
		p.bestFound = false
		if p.stage == stSizeForCut {
			p.stage = stCandidates
		} else {
			p.stage = stCandidates // swap cut also collects (empty) candidate replies
		}
		ctx.Broadcast(&wire{
			Kind: kDoCut, Seq: w.Seq,
			U: int32(p.cutEdge.U), V: int32(p.cutEdge.V), W: p.cutW,
			Comp: p.cutComp, Comp2: p.newComp,
			Fy: p.fy, LyCut: p.ly, TourLen: L,
			SubSize: p.subSize, RestSize: p.restSize,
			Shifts:  shifts,
			Convert: p.convert, NoReplace: p.convert,
			ReplyTo: int32(s.id),
			Miss:    &wire{Kind: kCandidate, Seq: w.Seq},
		}, wire{Shifts: shifts}.words(), true)
	}
}

// onDoCut applies a cut broadcast to the local shard and reports a
// replacement candidate (or the lack of one) to the orchestrator.
func (s *shard) onDoCut(ctx *mpc.Ctx, w *wire) {
	e := graph.NormEdge(int(w.U), int(w.V))
	fy, ly := w.Fy, w.LyCut
	restSingleton := fy == 2 && ly == w.TourLen-1
	compOld, compNew := w.Comp, w.Comp2

	var captured *treeRec
	if rec, ok := s.tree[e]; ok {
		captured = rec
		delete(s.tree, e)
	}

	// Only compOld's records move: shift them and re-file each under
	// compOld (the rest side, in place) or compNew (the cut-off subtree).
	old, oldNT := s.detach(compOld)
	r := refiler{s: s, comp: [2]int64{compOld, compNew}, dst: [2]*entry{old, nil}, nt: [2][]ntEnd{oldNT[:0], nil}}
	if old != nil {
		// Weight records repair under the identical rule: the cut-repair
		// shift remaps anchors sitting on the four removed positions onto
		// surviving appearances (or 0 + the fresh component for a cut-off
		// singleton), and the sub/rest shifts renumber the rest.
		for _, v := range old.verts {
			if rec, ok := s.weights[v]; ok {
				rec.ApplyShifts(w.Shifts)
			}
		}
		tree := old.tree
		old.tree = nil
		r.tree(w.Shifts, tree, captured)
	}
	r.anchors(w, oldNT, nil)
	// Named endpoints: the child (whose interval was [fy,ly] pre-cut) is
	// the endpoint appearing at fy on the captured record.
	childV := int32(-1)
	child, parent := int(w.U), int(w.V)
	if captured != nil {
		pu := posOf(&captured.pos, int(w.U))
		if pu[0] != fy && pu[1] != fy {
			child, parent = int(w.V), int(w.U)
		}
		if s.owner(int32(child)) == s.id {
			childV = int32(child)
		}
	}
	// Vertex labels: an owned vertex moves to compNew iff one of its
	// (already shifted) tree records did — all tour appearances of a
	// vertex land on one side of the cut — so compNew's tree records name
	// every owned vertex that moves. The child is handled explicitly
	// since it may have lost its only record. compOld has a tree edge, so
	// it is materialised and old lists all its owned vertices.
	moved := 0
	adopt := func(v int32) {
		if s.owner(v) == s.id && s.label(v) == compOld {
			r.vert(compNew, v)
			moved++
		}
	}
	if sub := r.dst[1]; sub != nil {
		for rec := sub.tree; rec != nil; rec = rec.next {
			adopt(int32(rec.pos.U))
			adopt(int32(rec.pos.V))
		}
	}
	if childV >= 0 {
		adopt(childV)
	}
	if moved > 0 {
		kept := old.verts[:0]
		for _, v := range old.verts {
			if s.label(v) == compOld {
				kept = append(kept, v)
			}
		}
		old.verts = kept
	}
	r.attach()
	if captured != nil {
		if w.Convert && (s.owner(int32(e.U)) == s.id || s.owner(int32(e.V)) == s.id) {
			// Re-add the evicted MST edge as a non-tree record with
			// repaired anchors; the repair shift handles the singleton
			// endpoints (position 0, fresh component) uniformly.
			pU := posOf(&captured.pos, e.U)[0]
			pV := posOf(&captured.pos, e.V)[0]
			aU, cU := applyChain(w.Shifts, pU, compOld)
			aV, cV := applyChain(w.Shifts, pV, compOld)
			if restSingleton {
				if e.U == parent {
					aU, cU = 0, compOld
				} else {
					aV, cV = 0, compOld
				}
			}
			s.addNonTree(&ntRec{e: e, aU: aU, aV: aV, cU: cU, cV: cV, w: w.W})
		}
	}
	// Registry updates.
	if s.registry(compOld) == int32(s.id) {
		s.sizes[compOld] = w.RestSize
	}
	if s.registry(compNew) == int32(s.id) {
		s.sizes[compNew] = w.SubSize
	}

	// Candidate scan: every crossing record has one anchor in compNew.
	var best *ntRec
	if !w.NoReplace {
		for _, end := range r.nt[1] {
			rec := end.rec
			crossing := (rec.cU == compOld && rec.cV == compNew) ||
				(rec.cU == compNew && rec.cV == compOld)
			if crossing && (best == nil || betterCandidate(s.cfg.Mode,
				rec.w, int32(rec.e.U), int32(rec.e.V), best.w, int32(best.e.U), int32(best.e.V))) {
				best = rec
			}
		}
	}
	if best == nil {
		ctx.Send(int(w.ReplyTo), w.Miss, 6)
		return
	}
	ctx.Send(int(w.ReplyTo), &wire{
		Kind: kCandidate, Seq: w.Seq, Found: true,
		U: int32(best.e.U), V: int32(best.e.V), W: best.w,
	}, 6)
}

// betterCandidate orders replacement candidates: min weight first in MST
// mode, then lexicographic ids for determinism.
func betterCandidate(mode Mode, w int64, u, v int32, bw int64, bu, bv int32) bool {
	if mode == MST && w != bw {
		return w < bw
	}
	if u != bu {
		return u < bu
	}
	return v < bv
}

func (s *shard) onCandidate(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stCandidates {
		return
	}
	p.replies++
	if w.Found && (!p.bestFound || betterCandidate(s.cfg.Mode, w.W, w.U, w.V, p.bestW, p.bestU, p.bestV)) {
		p.bestFound = true
		p.bestU, p.bestV, p.bestW = w.U, w.V, w.W
	}
	if p.replies < s.mu {
		return
	}
	if p.convert {
		// Swap cut complete: now link the originally inserted edge.
		p.stage = stInfoRelink
		p.relinkU, p.relinkV = int32(p.op.U), int32(p.op.V)
		p.relinkW = int64(p.op.W)
		p.relinkPromote = false
		p.gotU, p.gotV = false, false
		s.sendInfoReqs(ctx, w.Seq, p.relinkU, p.relinkV)
		return
	}
	if !p.bestFound {
		delete(s.pend, w.Seq) // components stay split
		return
	}
	// Promote the winning non-tree edge to a tree edge via a link.
	p.stage = stInfoRelink
	p.relinkU, p.relinkV = p.bestU, p.bestV
	p.relinkW = p.bestW
	p.relinkPromote = true
	p.gotU, p.gotV = false, false
	s.sendInfoReqs(ctx, w.Seq, p.bestU, p.bestV)
}

func (s *shard) onPathMaxReq(ctx *mpc.Ctx, w *wire) {
	// Broadcast fields: F,L = f(x),l(x); Fy,LyCut = f(y),l(y); Comp.
	fx, fy := w.F, w.Fy
	var best *treeRec
	for rec := s.treeOf(w.Comp); rec != nil; rec = rec.next {
		cf, cl := childInterval(&rec.pos)
		onPath := (cf <= fx && fx <= cl) != (cf <= fy && fy <= cl)
		if !onPath {
			continue
		}
		if best == nil || rec.w > best.w ||
			(rec.w == best.w && (rec.pos.U < best.pos.U || (rec.pos.U == best.pos.U && rec.pos.V < best.pos.V))) {
			best = rec
		}
	}
	if best == nil {
		ctx.Send(int(w.ReplyTo), w.Miss, 6)
		return
	}
	ctx.Send(int(w.ReplyTo), &wire{
		Kind: kPathMaxRep, Seq: w.Seq, Found: true,
		U: int32(best.pos.U), V: int32(best.pos.V), W: best.w,
	}, 6)
}

func (s *shard) onPathMaxRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stPathMax {
		return
	}
	p.replies++
	if w.Found && (!p.bestFound || w.W > p.bestW ||
		(w.W == p.bestW && (w.U < p.bestU || (w.U == p.bestU && w.V < p.bestV)))) {
		p.bestFound = true
		p.bestU, p.bestV, p.bestW = w.U, w.V, w.W
	}
	if p.replies < s.mu {
		return
	}
	if !p.bestFound || p.bestW <= int64(p.op.W) {
		// Keep the forest; the new edge becomes non-tree.
		s.sendAddNonTree(ctx, int32(p.op.U), int32(p.op.V), int64(p.op.W), p.compU, p.fU, p.fV)
		delete(s.pend, w.Seq)
		return
	}
	// Swap: cut the heaviest cycle edge (converting it to non-tree), then
	// link the new edge. The child interval lives on the evicted edge's
	// record at its owner; fetch it, then the component size.
	p.convert = true
	p.cutEdge = graph.NormEdge(int(p.bestU), int(p.bestV))
	p.cutW = p.bestW
	p.cutComp = p.compU
	p.newComp = int64(s.cfg.N) + 2*w.Seq + 1
	p.stage = stInterval
	ctx.Send(s.owner(p.bestU), &wire{
		Kind: kIntervalReq, U: p.bestU, V: p.bestV, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

func (s *shard) onIntervalReq(ctx *mpc.Ctx, w *wire) {
	e := graph.NormEdge(int(w.U), int(w.V))
	rec, ok := s.tree[e]
	if !ok {
		panic(fmt.Sprintf("dyncon: interval request for unknown tree edge %v at machine %d", e, s.id))
	}
	fy, ly := childInterval(&rec.pos)
	ctx.Send(int(w.ReplyTo), &wire{Kind: kIntervalRep, Seq: w.Seq, Fy: fy, LyCut: ly}, 5)
}

func (s *shard) onIntervalRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stInterval {
		return
	}
	p.fy, p.ly = w.Fy, w.LyCut
	p.stage = stSizeForSwapCut
	ctx.Send(int(s.registry(p.cutComp)), &wire{
		Kind: kSizeReq, Comp: p.cutComp, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

// broadcastLink computes the §5 insert plan (reroot of the guest tree,
// host tail shift, guest splice shift, the new edge's four positions) and
// broadcasts it. All parameters derive from the endpoint f/l values and
// component sizes, so one broadcast suffices.
func (s *shard) broadcastLink(ctx *mpc.Ctx, seq int64, x, y int32, w int64,
	compX, compY int64, sizeX, sizeY int, fx, lx, fy, ly int, promote bool) {

	var shifts []etour.Shift
	if sizeY > 1 && fy != 1 {
		shifts = append(shifts, etour.Shift{
			Kind: etour.ShiftReroot, Comp: compY, NewComp: compY,
			A: 4 * (sizeY - 1), B: ly,
		})
	}
	q := 0
	switch {
	case sizeX == 1:
		q = 0
	case fx == 1: // x roots its tree
		q = 4 * (sizeX - 1)
	default:
		q = fx
	}
	Ly := 4 * (sizeY - 1)
	shifts = append(shifts,
		etour.Shift{Kind: etour.ShiftLinkHost, Comp: compX, NewComp: compX, A: q, B: Ly},
		etour.Shift{Kind: etour.ShiftLinkGuest, Comp: compY, NewComp: compX, A: q, B: Ly},
	)
	e := graph.NormEdge(int(x), int(y))
	pos := etour.EdgePos{U: e.U, V: e.V}
	if e.U == int(x) {
		pos.UV = [2]int{q + 1, q + 2}
		pos.VU = [2]int{q + Ly + 3, q + Ly + 4}
	} else {
		pos.VU = [2]int{q + 1, q + 2}
		pos.UV = [2]int{q + Ly + 3, q + Ly + 4}
	}
	msg := wire{
		Kind: kDoLink, Seq: seq, U: x, V: y, W: w,
		Comp: compX, Comp2: compY, Q: q, Ly: Ly,
		Size: sizeX + sizeY, Shifts: shifts, Pos: pos, Promote: promote,
	}
	ctx.Broadcast(&msg, msg.words(), true)
}

// onDoLink applies a link broadcast to the local shard.
func (s *shard) onDoLink(ctx *mpc.Ctx, w *wire) {
	compX, compY := w.Comp, w.Comp2
	hostImplicit, guestImplicit := s.implicitHere(compX), s.implicitHere(compY)
	// Weight records of both components — their vertices' weights
	// entries: same shift chain, same named-endpoint healing for
	// singleton anchors (a singleton component is only ever linked
	// through its own vertex, so the link names it).
	for _, c := range [2]int64{compX, compY} {
		for _, v := range s.members(c) {
			rec, ok := s.weights[v]
			if !ok {
				continue
			}
			rec.ApplyShifts(w.Shifts)
			if rec.Anchor != 0 {
				continue
			}
			if v == w.U && rec.Comp == compX {
				rec.Anchor = w.Q + 1
			} else if v == w.V && rec.Comp == compY {
				rec.Anchor, rec.Comp = w.Q+2, compX
			}
		}
	}
	e := graph.NormEdge(int(w.U), int(w.V))
	var promoted *ntRec
	if w.Promote {
		promoted = s.nontree[e]
		delete(s.nontree, e)
	}
	// Only the two named components' records move, all into compX. The
	// entries merge into the one with more vertices, so the append copies
	// the shorter verts list, and the longer anchor list is re-filed in
	// place.
	host, hostNT := s.detach(compX)
	guest, guestNT := s.detach(compY)
	if guest != nil {
		for _, v := range guest.verts {
			s.setLabel(v, compX)
		}
	}
	into, from := host, guest
	if into == nil || from != nil && len(from.verts) > len(into.verts) {
		into, from = from, into
	}
	ntInto, ntFrom := hostNT, guestNT
	if len(ntFrom) > len(ntInto) {
		ntInto, ntFrom = ntFrom, ntInto
	}
	r := refiler{s: s, comp: [2]int64{compX, compY}, dst: [2]*entry{into, nil}, nt: [2][]ntEnd{ntInto[:0], nil}}
	if into != nil {
		tree := into.tree
		into.tree = nil
		r.tree(w.Shifts, tree, nil)
	}
	if from != nil {
		into.verts = append(into.verts, from.verts...)
		r.tree(w.Shifts, from.tree, nil)
	}
	r.anchors(w, ntInto, promoted)
	r.anchors(w, ntFrom, promoted)
	// An implicit singleton materialises: the host under its own label,
	// a guest under the host's.
	if hostImplicit {
		r.vert(compX, int32(compX))
	}
	if guestImplicit {
		r.vert(compX, int32(compY))
	}
	if s.owner(int32(e.U)) == s.id || s.owner(int32(e.V)) == s.id {
		rec := &treeRec{pos: w.Pos, comp: compX, w: w.W}
		s.tree[e] = rec
		r.to(compX).file(rec)
	}
	r.attach()
	if s.registry(compX) == int32(s.id) {
		s.sizes[compX] = w.Size
	}
	if s.registry(compY) == int32(s.id) {
		delete(s.sizes, compY)
	}
}
