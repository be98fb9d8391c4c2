package dmm

import (
	"fmt"

	"dmpc/internal/mpc"
)

// statsMachine holds the authoritative per-vertex statistics for a
// contiguous id range (the paper's O(n/√N) statistics machines).
type statsMachine struct {
	id           int
	per          int
	stats        map[int32]*stat
	queryResults map[int64]int32 // mate answers, gathered driver-side
	words        int             // Σ (6 + len(suspended)) over stats
}

func newStatsMachine(id, per int) *statsMachine {
	return &statsMachine{
		id: id, per: per,
		stats:        make(map[int32]*stat),
		queryResults: make(map[int64]int32),
	}
}

func (s *statsMachine) MemWords() int { return 2*len(s.queryResults) + s.words }

// checkWords compares the running word count with a recount.
func (s *statsMachine) checkWords() error {
	w := 0
	for _, st := range s.stats {
		w += 6 + len(st.suspended)
	}
	if w != s.words {
		return fmt.Errorf("stats machine %d: running word count %d, recount %d", s.id, s.words, w)
	}
	return nil
}

func (s *statsMachine) get(v int32) *stat {
	st, ok := s.stats[v]
	if !ok {
		st = &stat{mate: -1, home: -1}
		s.stats[v] = st
		s.words += 6
	}
	return st
}

// peek returns a copy of v's stat without allocating authoritative state
// for a never-touched vertex — the read the driver-side batch scheduler,
// Validate and the MateTable oracle use. The suspended list is the
// machine's own and must not be written.
func (s *statsMachine) peek(v int32) stat {
	if st, ok := s.stats[v]; ok {
		return *st
	}
	return stat{mate: -1, home: -1}
}

func (s *statsMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		m, ok := raw.Payload.(cmsg)
		if !ok {
			continue
		}
		switch m.Kind {
		case cStatsReq:
			st := s.get(m.V)
			st.deg += m.DegDelta
			cp := *st
			cp.suspended = append([]int32(nil), st.suspended...)
			ctx.Send(0, cmsg{Kind: cStatsRep, Seq: m.Seq, V: m.V, St: cp}, 8+len(cp.suspended))
		case cStatsSet:
			st := s.get(m.V)
			if m.SetMate {
				st.mate = m.Mate
			}
			if m.SetHeavy {
				st.heavy = m.Heavy
			}
			if m.SetHome {
				st.home = m.Home
			}
			if m.SetCnt {
				st.aliveCnt = m.Cnt
			}
			if m.SetSusp {
				s.words += len(m.Susp) - len(st.suspended)
				st.suspended = append([]int32(nil), m.Susp...)
			}
		case cCtrAdd:
			for i, v := range m.Vs {
				s.get(v).freeNbr += m.Ds[i]
			}
		case cMateQuery:
			// Plain lookup: a read must not allocate authoritative state
			// for a never-touched vertex (free vertices report -1 anyway).
			mate := int32(-1)
			if st, ok := s.stats[m.V]; ok {
				mate = st.mate
			}
			s.queryResults[m.Seq] = mate
		case cCtrGet:
			reply := cmsg{Kind: cCtrRep, Seq: m.Seq, Vs: append([]int32(nil), m.Vs...)}
			reply.Ds = make([]int32, len(m.Vs))
			for i, v := range m.Vs {
				reply.Ds[i] = s.get(v).freeNbr
			}
			ctx.Send(0, reply, 2+2*len(m.Vs))
		}
	}
}

// storeMachine holds adjacency records, keyed by owning vertex. It applies
// H suffixes before acting and reports reclaimed space on every reply.
// Both maps are allocated by the machine's first stored record, so the
// idle part of the pool costs New nothing beyond the struct.
type storeMachine struct {
	id    int
	edges map[int32][]edgeRec
	nrecs int // records held: MemWords is edgeWords·nrecs

	// owners indexes the records by their other endpoint: owners[w] holds
	// one entry per record naming w — its owning vertex — so an H entry
	// about w visits only those records. A runtime cache of edges that
	// MemWords does not charge.
	owners map[int32][]int32
}

func (s *storeMachine) MemWords() int { return edgeWords * s.nrecs }

// addRecs appends records to v's list.
func (s *storeMachine) addRecs(v int32, recs ...edgeRec) {
	if len(recs) == 0 {
		return
	}
	if s.edges == nil {
		s.edges = make(map[int32][]edgeRec)
		s.owners = make(map[int32][]int32)
	}
	s.edges[v] = append(s.edges[v], recs...)
	s.nrecs += len(recs)
	for _, r := range recs {
		s.owners[r.other] = append(s.owners[r.other], v)
	}
}

// takeRecs removes and returns v's whole list.
func (s *storeMachine) takeRecs(v int32) []edgeRec {
	recs := s.edges[v]
	delete(s.edges, v)
	s.nrecs -= len(recs)
	for _, r := range recs {
		s.unindex(v, r.other)
	}
	return recs
}

// unindex drops one owners[other] entry for v.
func (s *storeMachine) unindex(v, other int32) {
	list := s.owners[other]
	for i, o := range list {
		if o == v {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(s.owners, other)
	} else {
		s.owners[other] = list
	}
}

// applyH replays an update-history suffix onto the local records,
// returning the number of words reclaimed by lazy deletions. A machine
// holding no records has nothing to replay onto: every entry is a no-op.
func (s *storeMachine) applyH(h []hentry) int32 {
	if s.nrecs == 0 {
		return 0
	}
	var freed int32
	for _, e := range h {
		switch e.op {
		case hEdgeDel:
			freed += s.removeRec(e.a, e.b)
			freed += s.removeRec(e.b, e.a)
		case hMatched:
			s.eachRec(e.a, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = true, e.b, e.bh })
			s.eachRec(e.b, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = true, e.a, e.ah })
		case hUnmatched:
			s.eachRec(e.a, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = false, -1, false })
			s.eachRec(e.b, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = false, -1, false })
		case hHeavyOn, hHeavyOff:
			on := e.op == hHeavyOn
			s.eachRec(e.a, func(r *edgeRec) { r.heavy = on })
			s.eachMate(e.a, func(r *edgeRec) { r.mateHeavy = on })
		}
	}
	return freed
}

// eachRec visits every record whose other endpoint is v, through the
// owners index. An owner filed twice under v is scanned twice; every
// visitor is an idempotent field write.
func (s *storeMachine) eachRec(v int32, f func(*edgeRec)) {
	for _, o := range s.owners[v] {
		recs := s.edges[o]
		for i := range recs {
			if recs[i].other == v {
				f(&recs[i])
			}
		}
	}
}

// eachMate visits every record whose mirrored mate is v.
func (s *storeMachine) eachMate(v int32, f func(*edgeRec)) {
	for _, recs := range s.edges {
		for i := range recs {
			if recs[i].matched && recs[i].mate == v {
				f(&recs[i])
			}
		}
	}
}

func (s *storeMachine) removeRec(v, other int32) int32 {
	recs := s.edges[v]
	for i := range recs {
		if recs[i].other == other {
			recs[i] = recs[len(recs)-1]
			s.edges[v] = recs[:len(recs)-1]
			if len(s.edges[v]) == 0 {
				delete(s.edges, v)
			}
			s.nrecs--
			s.unindex(v, other)
			return edgeWords
		}
	}
	return 0
}

// checkIndex reports how the running record count and the owners index
// differ from a recount of edges (nil when they agree).
func (s *storeMachine) checkIndex() error {
	n := 0
	want := map[[2]int32]int{} // (other, owner) -> records
	for v, recs := range s.edges {
		if len(recs) == 0 {
			return fmt.Errorf("storage %d: empty list for %d", s.id, v)
		}
		n += len(recs)
		for _, r := range recs {
			want[[2]int32{r.other, v}]++
		}
	}
	if n != s.nrecs {
		return fmt.Errorf("storage %d: running record count %d, holds %d", s.id, s.nrecs, n)
	}
	for w, list := range s.owners {
		if len(list) == 0 {
			return fmt.Errorf("storage %d: empty owners list for %d", s.id, w)
		}
		for _, o := range list {
			k := [2]int32{w, o}
			if want[k] == 0 {
				return fmt.Errorf("storage %d: owners[%d] lists %d without a record", s.id, w, o)
			}
			want[k]--
		}
	}
	for k, c := range want {
		if c != 0 {
			return fmt.Errorf("storage %d: %d record(s) of %d naming %d missing from owners", s.id, c, k[1], k[0])
		}
	}
	return nil
}

func (s *storeMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		m, ok := raw.Payload.(cmsg)
		if !ok {
			continue
		}
		switch m.Kind {
		case cStore:
			freed := s.applyH(m.H)
			s.addRecs(m.V, m.Rec)
			if freed > 0 {
				ctx.Send(0, cmsg{Kind: cAck, Seq: -1, Target: int32(s.id), Freed: freed}, 4)
			}
		case cRefresh:
			freed := s.applyH(m.H)
			ctx.Send(0, cmsg{Kind: cAck, Seq: -1, Target: int32(s.id), Freed: freed}, 4)
		case cScan:
			freed := s.applyH(m.H)
			reply := cmsg{Kind: cScanRep, Seq: m.Seq, V: m.V, Target: int32(s.id), Freed: freed}
			for _, r := range s.edges[m.V] {
				if m.WantFree && !r.matched && r.other != m.Exclude {
					reply.FoundFree, reply.FreeW, reply.Rec = true, r.other, r
					break
				}
				if m.WantSteal && !reply.FoundSteal && r.matched && !r.mateHeavy {
					reply.FoundSteal, reply.StealW, reply.StealMate = true, r.other, r.mate
					reply.Rec = r
				}
			}
			if reply.FoundFree {
				reply.FoundSteal = false
			}
			ctx.Send(0, reply, 12)
		case cList:
			freed := s.applyH(m.H)
			recs := append([]edgeRec(nil), s.edges[m.V]...)
			ctx.Send(0, cmsg{
				Kind: cListRep, Seq: m.Seq, V: m.V, Target: int32(s.id),
				Freed: freed, Recs: recs,
			}, 4+edgeWords*len(recs))
		case cMoveOut:
			freed := s.applyH(m.H)
			recs := s.takeRecs(m.V)
			freed += int32(len(recs) * edgeWords)
			ctx.Send(int(m.Target), cmsg{
				Kind: cMoveIn, Seq: m.Seq, V: m.V, Recs: recs, Keep: m.Keep, Overflow: m.Overflow,
			}, 2+edgeWords*len(recs))
			ctx.Send(0, cmsg{Kind: cAck, Seq: m.Seq, Target: int32(s.id), Freed: freed}, 4)
		case cMoveIn:
			recs := m.Recs
			kept := recs
			if m.Keep >= 0 && int(m.Keep) < len(recs) {
				kept = recs[:m.Keep]
			}
			s.addRecs(m.V, kept...)
			ctx.Send(0, cmsg{
				Kind: cAck, Seq: m.Seq, Target: int32(s.id),
				Used: int32(len(kept) * edgeWords), Count: int32(len(kept)),
			}, 5)
			if m.Overflow >= 0 {
				rest := recs[len(kept):]
				ctx.Send(int(m.Overflow), cmsg{
					Kind: cMoveIn, Seq: m.Seq, V: m.V, Recs: rest, Keep: -1, Overflow: -1,
				}, 2+edgeWords*len(rest))
			}
		}
	}
}
