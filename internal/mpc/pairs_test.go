package mpc

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// scriptMachine sends, in each round, exactly the (to, words) cells its
// script lists for that round. The traffic is fixed before the run, so
// the map oracle is filled without touching concurrently running
// handlers.
type scriptMachine struct {
	script map[int][]pairCell
}

func (m *scriptMachine) HandleRound(ctx *Ctx, _ []Message) {
	for _, c := range m.script[ctx.Round()] {
		ctx.Send(c.to, nil, c.words)
	}
}

// pairTraffic is a pre-generated run: per-machine scripts, per-round
// external injections, and the map[[2]int]int oracle of every pair's
// lifetime volume after each round.
type pairTraffic struct {
	mu      int
	scripts []*scriptMachine
	extern  map[int][]pairCell // round -> (to, words) injected From -1
	oracle  []map[[2]int]int   // oracle[r]: volumes after round r
}

// Traffic shapes of the oracle test.
const (
	shapeStar      = iota // dmm: coordinator broadcasts, every leaf answers it
	shapeBroadcast        // dyncon: one orchestrator broadcasts, all reply next round
	shapeExternal         // driver injections, From -1
	shapeRamp             // one sender adds fresh destinations, crossing µ/2
	nShapes
)

func genPairTraffic(mu, rounds int, rng *xorshift, shapes ...int) *pairTraffic {
	tr := &pairTraffic{mu: mu, extern: map[int][]pairCell{}}
	for i := 0; i < mu; i++ {
		tr.scripts = append(tr.scripts, &scriptMachine{script: map[int][]pairCell{}})
	}
	send := func(r, from, to, words int) {
		if r < rounds {
			tr.scripts[from].script[r] = append(tr.scripts[from].script[r], pairCell{to: to, words: words})
		}
	}
	ramp := map[int]int{} // sender -> next fresh destination offset
	for r := 0; r < rounds; r++ {
		shape := shapes[int(rng.next()%uint64(len(shapes)))]
		w := int(rng.next()%5) + 1
		switch shape {
		case shapeStar:
			for leaf := 1; leaf < mu; leaf++ {
				send(r, 0, leaf, w)
				send(r, leaf, 0, 1)
			}
		case shapeBroadcast:
			o := int(rng.next() % uint64(mu))
			for to := 0; to < mu; to++ {
				send(r, o, to, 16+5*w)
				send(r+1, to, o, 6)
			}
		case shapeExternal:
			for k := rng.next() % 4; k > 0; k-- {
				tr.extern[r] = append(tr.extern[r], pairCell{to: int(rng.next() % uint64(mu)), words: w})
			}
		case shapeRamp:
			from := int(rng.next() % uint64(mu))
			for k := rng.next()%3 + 1; k > 0; k-- {
				off := ramp[from]
				ramp[from]++
				// A stride coprime to most µ spreads the fresh
				// destinations, so cells insert mid-row, not only at the
				// tail.
				send(r, from, (from+7*off+3)%mu, w)
			}
		}
	}
	cur := map[[2]int]int{}
	for r := 0; r < rounds; r++ {
		for _, c := range tr.extern[r] {
			cur[[2]int{-1, c.to}] += c.words
		}
		for from, m := range tr.scripts {
			for _, c := range m.script[r] {
				cur[[2]int{from, c.to}] += c.words
			}
		}
		tr.oracle = append(tr.oracle, maps.Clone(cur))
	}
	return tr
}

// run drives the traffic on a fresh cluster, calling check after every
// round.
func (tr *pairTraffic) run(be BackendKind, check func(r int, c *Cluster)) {
	c := NewCluster(Config{Machines: tr.mu, MemWords: 1 << 20, Workers: 3, Backend: be})
	defer c.Close()
	for i, m := range tr.scripts {
		c.SetMachine(i, m)
	}
	for r := range tr.oracle {
		for _, e := range tr.extern[r] {
			c.Send(Message{From: -1, To: e.to, Words: e.words})
		}
		for i, m := range tr.scripts {
			if len(m.script[r]) > 0 {
				c.Schedule(i)
			}
		}
		c.Round()
		check(r, c)
	}
}

// oracleEntropy is CommEntropy over the oracle map, summing in the same
// sorted-volume order.
func oracleEntropy(m map[[2]int]int) (float64, int) {
	var vols []int
	total, max := 0, 0
	for _, w := range m {
		vols = append(vols, w)
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 0, 0
	}
	slices.Sort(vols)
	h := 0.0
	for _, w := range vols {
		p := float64(w) / float64(total)
		h -= p * math.Log2(p)
	}
	return h, max
}

// pairFootprint is the pair rows' memory in words: two per sparse cell,
// one per dense slot.
func pairFootprint(c *Cluster) int {
	n := 0
	for _, r := range c.stats.pairs.rows {
		n += 2*len(r.cells) + len(r.dense)
	}
	return n
}

// TestPairRowsMatchMapOracle: random traffic in the shapes the cores
// produce — a dmm-style star, a dyncon-style broadcast plus gather,
// external injections, and senders that add destinations one by one
// until their row switches from sparse cells to a dense slice — yields,
// after every round and on both backends, exactly the CommEntropy and
// MaxPairWords of a map[[2]int]int oracle fed the same traffic, and the
// rows hold exactly the oracle's pairs.
func TestPairRowsMatchMapOracle(t *testing.T) {
	all := []int{shapeStar, shapeBroadcast, shapeExternal, shapeRamp}
	for _, mu := range []int{1, 2, 3, 8, 37} {
		for seed := 1; seed <= 4; seed++ {
			rng := xorshift(uint64(seed*7919 + mu))
			tr := genPairTraffic(mu, 60, &rng, all...)
			for _, be := range []BackendKind{BackendSim, BackendParallel} {
				tr.run(be, func(r int, c *Cluster) {
					want := tr.oracle[r]
					wantH, wantMax := oracleEntropy(want)
					if h := c.CommEntropy(); h != wantH {
						t.Fatalf("µ=%d seed %d %v round %d: CommEntropy %v, oracle %v", mu, seed, be, r, h, wantH)
					}
					if m := c.MaxPairWords(); m != wantMax {
						t.Fatalf("µ=%d seed %d %v round %d: MaxPairWords %d, oracle %d", mu, seed, be, r, m, wantMax)
					}
					if got := len(c.stats.pairs.volumes()); got != len(want) {
						t.Fatalf("µ=%d seed %d %v round %d: %d live pairs, oracle %d", mu, seed, be, r, got, len(want))
					}
				})
			}
		}
	}
}

// TestPairRowsSparseDenseSwitch: a row stays sparse, sorted and exact up
// to µ/2 destinations and turns dense on the next fresh one, keeping
// every volume.
func TestPairRowsSparseDenseSwitch(t *testing.T) {
	const mu = 10
	var r pairRow
	want := make([]int, mu)
	for i, to := range []int{7, 2, 9, 2, 0, 5} { // 5 fresh destinations, one repeat
		r.add(to, i+1, mu)
		want[to] += i + 1
	}
	if r.dense != nil || len(r.cells) != 5 {
		t.Fatalf("after µ/2 destinations: %d cells, dense %v; want 5 sparse cells", len(r.cells), r.dense != nil)
	}
	if !slices.IsSortedFunc(r.cells, func(a, b pairCell) int { return a.to - b.to }) {
		t.Fatalf("cells not sorted by destination: %v", r.cells)
	}
	r.add(3, 4, mu)
	want[3] += 4
	if r.cells != nil || !slices.Equal(r.dense, want) {
		t.Fatalf("after the switch: cells %v, dense %v; want dense %v", r.cells, r.dense, want)
	}
}

// TestPairRowsStarFootprint: the dmm shape — one coordinator talking to
// µ−1 leaves that only answer it — uses 2(µ−1) of µ² pairs, and the rows
// must hold O(µ) words for it at µ=2,397 (the match-poisson cluster),
// not a µ×µ matrix.
func TestPairRowsStarFootprint(t *testing.T) {
	const mu = 2397
	rng := xorshift(3)
	tr := genPairTraffic(mu, 3, &rng, shapeStar)
	tr.run(BackendParallel, func(r int, c *Cluster) {
		if got := len(c.stats.pairs.volumes()); got != 2*(mu-1) {
			t.Fatalf("round %d: %d live pairs, want %d", r, got, 2*(mu-1))
		}
		if words := pairFootprint(c); words > 4*mu {
			t.Fatalf("round %d: pair rows hold %d words for a star on µ=%d, want at most %d", r, words, mu, 4*mu)
		}
	})
}
