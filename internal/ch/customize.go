package ch

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/fed"
	"repro/internal/mpc"
)

// Customize derives a query-ready index from a topology skeleton under the
// federation's silo weights: the customization sweep on a blank index — no
// winner known, every base arc dirty (see Index.sweep) — on one engine forked
// from f's, one Fed-SAC instance per tick of the skeleton's comparison DAG,
// Skeleton.CriticalPath() of them whatever the weights. It elects every pair
// group's winner, and the resulting index is query-equivalent to a
// witness-pruned Build at the same weights.
func Customize(f *fed.Federation, sk *Skeleton) (*Index, error) {
	x, err := blankCustomized(f, sk)
	if err != nil {
		return nil, err
	}
	wf := f.Fork()
	defer wf.Engine().Close()

	start := time.Now()
	dirty := make([]int32, x.numBase)
	for a := range dirty {
		dirty[a] = int32(a)
	}
	sw, err := x.sweep(wf.NewSAC(), dirty)
	if err != nil {
		return nil, err
	}

	sacStats := wf.Engine().Stats()
	x.buildStats = BuildStats{
		Shortcuts:     x.NumShortcuts(),
		SAC:           sacStats,
		WallTime:      time.Since(start),
		Rounds:        sw.ticks,
		MaxRoundWidth: sw.widest,
		RoundsSaved:   sacStats.Compares*int64(mpc.RoundsPerCompare) - sacStats.Rounds,
		Customized:    true,
		Levels:        sk.Levels(),
	}
	if sw.ticks > 0 {
		x.buildStats.AvgRoundWidth = float64(sacStats.Compares) / float64(sw.ticks)
	}
	return x, nil
}

// blankCustomized validates that the skeleton fits the federation's graph and
// returns an index over it with no winner elected and zero group partials.
func blankCustomized(f *fed.Federation, sk *Skeleton) (*Index, error) {
	if sk == nil {
		return nil, fmt.Errorf("ch: customize without a skeleton")
	}
	g := f.Graph()
	if len(sk.rank) != g.NumVertices() || sk.numBase != g.NumArcs() {
		return nil, fmt.Errorf("ch: skeleton contracted a %d-vertex/%d-arc graph, federation serves %d/%d",
			len(sk.rank), sk.numBase, g.NumVertices(), g.NumArcs())
	}
	x := &Index{
		f:    f,
		rank: sk.rank,
		// The topology arrays are shared with the skeleton: both are
		// immutable for a customized index (an update re-elects winners,
		// never appends arcs).
		tail:    sk.tail,
		head:    sk.head,
		via:     sk.via,
		numBase: sk.numBase,
		skel:    sk,
	}
	nGrp := sk.Plan().nGrp
	x.grpW = make([][]int64, f.P())
	for s := range x.grpW {
		x.grpW[s] = make([]int64, nGrp)
	}
	x.win = make([]int32, nGrp)
	for g := range x.win {
		x.win[g] = -1
	}
	return x, nil
}

// updateCustomized is the dynamic-update path for customized indexes: the
// topology is immutable, so the next version re-elects winners and re-sums
// group partials by the same sweep a full customization runs, restricted to
// what the moved arcs can reach. No arcs are ever added (AddedShortcuts is
// always zero); UpdateStats.ReverifiedVertices counts re-run group
// tournaments here.
func (x *Index) updateCustomized(sac *fed.SAC, dirty []int32) (UpdateStats, error) {
	var stats UpdateStats
	if len(dirty) > 0 {
		sw, err := x.sweep(sac, dirty)
		if err != nil {
			return stats, err
		}
		stats.RecomputedShortcuts, stats.ReverifiedVertices = sw.reweighted, sw.tournaments
	}
	return stats, nil
}

// sweepCost is what one sweep did: Fed-SAC instances run and the widest of
// them, shortcuts whose partials moved, multi-member tournaments re-run.
type sweepCost struct{ ticks, widest, reweighted, tournaments int }

// Per-group sweep flags.
const (
	grpDirty  = 1 << iota // a member's partial vector changed: the tournament re-runs
	grpMoved              // decided, and its winner's identity or partials changed
	grpActive             // queued for the next tick
	grpDone               // decided
)

// sweep brings the customized weights up to date after the partial vectors of
// the given base arcs (x.f's silo weights of them, each listed once, in
// ascending order) changed.
// It is a dependency-driven schedule over the plan's pair groups, confined to
// the static downstream cone of the dirty arcs:
//
//   - a cone shortcut is pending until both child groups are decided; then it
//     is final, and it counts as changed when a child winner moved and the
//     sum of its child groups' partials moved with it (locally);
//   - a group is dirty from the moment a final member has changed, and from
//     then on holds its final members as contenders. Each tick sends ONE
//     Fed-SAC instance with ⌊c/2⌋ comparisons from every group holding c ≥ 2
//     contenders (groups ascending, each pair as (later arc, earlier arc) so
//     a tie keeps the earlier: lexicographic min on (joint cost, arc ID) is
//     associative, so any tournament shape elects the earliest minimum);
//   - a group with no pending member is decided once one contender is left —
//     or at once, keeping its winner, if no member changed — and releases the
//     shortcuts that read it, cascading without a round.
//
// So early members are reduced while later ones are still being computed, a
// group of g members costs g−1 comparisons exactly when a member changed,
// and a full sweep (every base arc dirty on a blank index) takes
// Skeleton.CriticalPath() ticks. A decided group's winner goes to x.win in
// place, which is also its query-list slot, and its partials to x.grpW:
// nothing else is rebuilt.
func (x *Index) sweep(sac *fed.SAC, dirty []int32) (cost sweepCost, err error) {
	pl, nb, p, win, gw := x.skel.Plan(), int32(x.numBase), x.f.P(), x.win, x.grpW
	rw := pl.rows()
	flags := make([]uint8, pl.nGrp)
	pendG := make([]int32, pl.nGrp)        // members still pending
	nCont := make([]int32, pl.nGrp)        // contenders held, in cont[memStart[g]:]
	cont := make([]int32, len(rw.members)) // one slot per member: never overflows
	pendS := make([]uint8, len(pl.kids)/2) // per shortcut: undecided child groups in the cone
	changed := make([]bool, len(x.tail))   // per arc: partial vector moved in this sweep
	var active, tick, ready []int32        // groups in the next / this tick; decided groups to release
	// A moved group's partials from before the sweep: row oldAt[g]-1 of
	// oldW, which a consumer's old sum reads; oldAt[g] is 0 until g moves.
	oldAt := make([]int32, pl.nGrp)
	var oldW []int64
	old := func(s int, g int32) int64 {
		if r := oldAt[g]; r > 0 {
			return oldW[int(r-1)*p+s]
		}
		return gw[s][g]
	}

	// markDirty turns g's final members into its contenders.
	markDirty := func(g int32) {
		flags[g] |= grpDirty
		for _, a := range rw.group(g) {
			if a < nb || pendS[a-nb] == 0 {
				cont[rw.memStart[g]+nCont[g]] = a
				nCont[g]++
			}
		}
	}
	// settle decides g if nothing more can change it, else queues it for the
	// next tick when it has a comparison to make.
	settle := func(g int32) {
		switch {
		case flags[g]&grpDone != 0:
		case pendG[g] == 0 && nCont[g] <= 1:
			flags[g] |= grpDone
			if flags[g]&grpDirty != 0 {
				w := cont[rw.memStart[g]]
				if w != win[g] || changed[w] {
					oldAt[g] = int32(len(oldW)/p) + 1
					for s := range gw {
						oldW = append(oldW, gw[s][g])
						gw[s][g] = x.partial(s, w)
					}
					win[g] = w
					flags[g] |= grpMoved
				}
				if len(rw.group(g)) > 1 {
					cost.tournaments++
				}
			}
			ready = append(ready, g)
		case nCont[g] >= 2 && flags[g]&grpActive == 0:
			flags[g] |= grpActive
			active = append(active, g)
		}
	}
	// release makes the consumers of decided groups final and lets them join
	// their own groups, until nothing more is decided without a comparison.
	release := func() {
		for len(ready) > 0 {
			g := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			for _, slot := range rw.cons[rw.consStart[g]:rw.consStart[g+1]] {
				i := slot / 2
				if pendS[i]--; pendS[i] > 0 {
					continue
				}
				a, ga, gb := i+nb, pl.kids[2*i], pl.kids[2*i+1]
				if (flags[ga]|flags[gb])&grpMoved != 0 {
					for s := range gw {
						if gw[s][ga]+gw[s][gb] != old(s, ga)+old(s, gb) {
							changed[a] = true
							break
						}
					}
				}
				own := pl.groupOf[a]
				pendG[own]--
				if flags[own]&grpDirty != 0 {
					cont[rw.memStart[own]+nCont[own]] = a
					nCont[own]++
				} else if changed[a] {
					markDirty(own)
				}
				if changed[a] {
					cost.reweighted++
				}
				settle(own)
			}
		}
	}

	// The cone, in arc order: a shortcut is pending on every child group that
	// holds a dirty base arc or a pending shortcut. Only then is it known which
	// members of the dirty arcs' groups are final, and only with all of those
	// groups marked may any be settled.
	for _, a := range dirty {
		changed[a] = true
		flags[pl.groupOf[a]] |= grpDirty
	}
	for i := range pendS {
		for _, g := range pl.kids[2*i : 2*i+2] {
			if flags[g]&grpDirty != 0 || pendG[g] > 0 {
				pendS[i]++
			}
		}
		if pendS[i] > 0 {
			pendG[pl.groupOf[int32(i)+nb]]++
		}
	}
	for _, a := range dirty {
		if g := pl.groupOf[a]; nCont[g] == 0 {
			markDirty(g)
		}
	}
	for _, a := range dirty {
		settle(pl.groupOf[a])
	}
	release()

	var flat []int64   // one tick's diffs, row-major
	var rows [][]int64 // rows[i] = flat[i*p:(i+1)*p]
	var duel []int32   // the tick's pairs: (earlier arc, later arc)
	for len(active) > 0 {
		slices.Sort(active)
		duel, flat, rows = duel[:0], flat[:0], rows[:0]
		for _, g := range active {
			c := cont[rw.memStart[g]:][:nCont[g]]
			for j := 0; j+1 < len(c); j += 2 {
				lo, hi := min(c[j], c[j+1]), max(c[j], c[j+1])
				duel = append(duel, lo, hi)
				for s := range gw {
					flat = append(flat, x.partial(s, hi)-x.partial(s, lo))
				}
			}
		}
		k := len(duel) / 2
		for i := 0; i < k; i++ {
			rows = append(rows, flat[i*p:(i+1)*p])
		}
		laterWins := sac.LessDiffs(rows)
		if err := sac.Err(); err != nil {
			return cost, err
		}
		cost.ticks, cost.widest = cost.ticks+1, max(cost.widest, k)
		// Reduce every group before anything is settled: a release may hand a
		// group later in the list a new contender.
		i := 0
		for _, g := range active {
			c := cont[rw.memStart[g]:][:nCont[g]]
			for j := 0; j+1 < len(c); j, i = j+2, i+1 {
				c[j/2] = duel[2*i]
				if laterWins[i] {
					c[j/2] = duel[2*i+1]
				}
			}
			if len(c)%2 == 1 {
				c[len(c)/2] = c[len(c)-1]
			}
			nCont[g] = int32(len(c)+1) / 2
			flags[g] &^= grpActive
		}
		tick, active = active, tick[:0]
		for _, g := range tick {
			settle(g)
		}
		release()
	}
	return cost, nil
}
