package mpc

// Pair-communication accounting: the lifetime words each ordered
// (sender, receiver) pair exchanged — the distribution CommEntropy and
// MaxPairWords summarize. The driver charges every delivered message
// here, so the write must cost O(1)-ish and the memory must follow the
// live pairs: a lifetime map[[2]int]int write per message cost a
// quarter of a broadcast-heavy run's CPU, while a dense µ×µ matrix
// costs µ² words on a star-shaped cluster that only ever uses O(µ)
// pairs.
//
// The layout is one row per sender. A row starts sparse — (to, words)
// cells sorted by destination, found by binary search — and switches to
// a dense µ-slice indexed by destination once one more cell would cost
// more memory than that slice (a cell is two words, so at µ/2 cells). A
// broadcasting sender therefore goes dense after its first broadcast and
// pays one indexed add per message from then on; a leaf that only talks
// to its coordinator keeps a one-cell row. Total memory is O(live pairs
// + µ) either way. Integer addition commutes, so the volumes — and with
// them CommEntropy and MaxPairWords — are bit-identical to per-message
// map writes in any order.

// pairCell is one sparse row entry: the words sent to machine to.
type pairCell struct {
	to, words int
}

// pairRow is one sender's lifetime volume per destination: sparse cells
// (ascending by to) until the row switches, then dense (nil cells).
type pairRow struct {
	cells []pairCell
	dense []int
}

// pairRows holds one row per sender: row 0 is the external sender
// (Message.From == -1), row i+1 is machine i. Senders outside [-1, µ)
// never reach it — Deliver refuses them as model violations, and
// handler messages always carry their machine's own id. The rows are
// allocated on the first charge, so building a cluster costs nothing
// here.
type pairRows struct {
	mu   int
	rows []pairRow
}

// row returns sender from's row.
func (p *pairRows) row(from int) *pairRow {
	if p.rows == nil {
		p.rows = make([]pairRow, p.mu+1)
	}
	return &p.rows[from+1]
}

// add charges words of traffic to destination to, which must lie in
// [0, µ).
func (r *pairRow) add(to, words, mu int) {
	if r.dense != nil {
		r.dense[to] += words
		return
	}
	lo, hi := 0, len(r.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.cells[m].to < to {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(r.cells) && r.cells[lo].to == to {
		r.cells[lo].words += words
		return
	}
	if 2*(len(r.cells)+1) > mu {
		r.dense = make([]int, mu)
		for _, c := range r.cells {
			r.dense[c.to] = c.words
		}
		r.cells = nil
		r.dense[to] = words
		return
	}
	r.cells = append(r.cells, pairCell{})
	copy(r.cells[lo+1:], r.cells[lo:])
	r.cells[lo] = pairCell{to: to, words: words}
}

// volumes returns every live pair's lifetime volume, in no particular
// order. Every delivered message charges at least one word, so a zero
// dense slot is a pair that never communicated.
func (p *pairRows) volumes() []int {
	var out []int
	for i := range p.rows {
		for _, c := range p.rows[i].cells {
			out = append(out, c.words)
		}
		for _, w := range p.rows[i].dense {
			if w != 0 {
				out = append(out, w)
			}
		}
	}
	return out
}
