package ch

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// The level-synchronous bracket sweep Index.sweep replaced, kept as its
// reference: hierarchy levels bottom-up, each level running the tournaments
// of every group whose deepest member sits there as brackets over the
// members in arc order, bracket round r of all of them in one Fed-SAC
// instance. A level
// costs ⌈log2 of its largest group⌉ instances however far that group is from
// the chain that decides the sweep's length — which is what the scheduler
// stops paying — but the comparisons are the same in number and the winners
// are the same arcs.

// groupWinners decides the given pair groups: the joint-minimum member
// (earliest on ties) of each, all brackets sharing one instance per round.
func (x *Index) groupWinners(sac *fed.SAC, rw *groupRows, duel []int32) []int32 {
	slates := make([][]fed.Partial, len(duel))
	for i, g := range duel {
		for _, a := range rw.group(g) {
			slates[i] = append(slates[i], x.Partial(a))
		}
	}
	out := make([]int32, len(duel))
	for i, w := range fed.EarliestMin(sac.LessBatch, slates) {
		out[i] = rw.group(duel[i])[w]
	}
	return out
}

// referenceCustomize runs the level-synchronous sweep on a fresh federation
// fork and returns the index (winners, partials) with the Fed-SAC cost it
// paid.
func referenceCustomize(t *testing.T, f *fed.Federation, sk *Skeleton) (*Index, mpc.Stats) {
	t.Helper()
	x, err := blankCustomized(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	wf := f.Fork()
	defer wf.Engine().Close()
	pl, sac := sk.Plan(), wf.NewSAC()
	rw := pl.rows()

	// lvl(base arc) = 0, lvl(shortcut) = 1 + max lvl over both child groups'
	// members; a group is decided at the level of its deepest member.
	m, nb := len(sk.tail), sk.numBase
	groupLvl := make([]int32, pl.nGrp)
	for a := nb; a < m; a++ {
		lvl := 1 + max(groupLvl[pl.kids[2*(a-nb)]], groupLvl[pl.kids[2*(a-nb)+1]])
		g := pl.groupOf[a]
		groupLvl[g] = max(groupLvl[g], lvl)
	}
	groupsAt := make([][]int32, pl.maxLvl+1)
	win := make([]int32, pl.nGrp)
	for g := range win {
		members := rw.group(int32(g))
		win[g] = members[0]
		if len(members) > 1 {
			groupsAt[groupLvl[g]] = append(groupsAt[groupLvl[g]], int32(g))
		}
	}
	for l := 0; l <= pl.maxLvl; l++ {
		for i, w := range x.groupWinners(sac, rw, groupsAt[l]) {
			win[groupsAt[l][i]] = w
		}
		if err := sac.Err(); err != nil {
			t.Fatal(err)
		}
		// The level's groups are decided: their partials, which the
		// shortcuts above sum, are their winners'.
		for g := range win {
			if groupLvl[g] == int32(l) {
				for p, gw := range x.grpW {
					gw[g] = x.partial(p, win[g])
				}
			}
		}
	}
	x.win = win
	return x, wf.Engine().Stats()
}

// arcPartials is every overlay arc's partial per silo, however x stores them.
func arcPartials(x *Index) [][]int64 {
	out := make([][]int64, x.f.P())
	for p := range out {
		out[p] = make([]int64, x.NumArcs())
		for a := range out[p] {
			out[p][a] = x.partial(p, int32(a))
		}
	}
	return out
}

func indexBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := x.WriteIndex(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameCustomization demands two customized indexes over one skeleton agree
// on everything a sweep decides: every pair group's winner — so every
// shortcut's children and every query list — and every partial weight.
func sameCustomization(t *testing.T, tag string, got, want *Index) {
	t.Helper()
	for g := range want.win {
		if got.win[g] != want.win[g] {
			t.Fatalf("%s: pair group %d elected arc %d, reference %d", tag, g, got.win[g], want.win[g])
		}
	}
	gotW, wantW := arcPartials(got), arcPartials(want)
	for a := range want.tail {
		for p := range wantW {
			if gotW[p][a] != wantW[p][a] {
				t.Fatalf("%s: silo %d weight of arc %d is %d, reference %d", tag, p, a, gotW[p][a], wantW[p][a])
			}
		}
	}
	if !bytes.Equal(indexBytes(t, got), indexBytes(t, want)) {
		t.Fatalf("%s: WriteIndex bytes differ from the reference", tag)
	}
}

// tieHeavy returns per-silo weight generators under which most tournaments
// meet equal joint costs, so only the tie rule separates their members.
func tieHeavy() map[string]func(rng *rand.Rand) [3]int64 {
	return map[string]func(rng *rand.Rand) [3]int64{
		"all-equal": func(*rand.Rand) [3]int64 { return [3]int64{7, 7, 7} },
		"one-or-two": func(rng *rand.Rand) [3]int64 {
			return [3]int64{1 + rng.Int64N(2), 1 + rng.Int64N(2), 1 + rng.Int64N(2)}
		},
		// Joint cost 6 on every arc, split differently across the silos.
		"redistributed": func(rng *rand.Rand) [3]int64 {
			s0 := 1 + rng.Int64N(4)
			s1 := 1 + rng.Int64N(5-s0)
			return [3]int64{s0, s1, 6 - s0 - s1}
		},
	}
}

// TestSweepElectsTheBracketWinners: whatever shape the scheduler's
// tournaments take, they must elect the reference bracket's winners — the
// earliest joint minimum of every group — down to the serialized bytes, on
// inputs where almost every comparison is a tie, in no more rounds and
// exactly as many comparisons.
func TestSweepElectsTheBracketWinners(t *testing.T) {
	gg, wg := graph.GenerateGrid(9, 10, 41)
	gr, wr := graph.GenerateRoadLike(220, 42)
	for _, net := range []network{{"grid", gg, wg}, {"road", gr, wr}} {
		sk, err := BuildSkeleton(net.g)
		if err != nil {
			t.Fatal(err)
		}
		for name, draw := range tieHeavy() {
			tag := net.name + "/" + name
			rng := rand.New(rand.NewPCG(43, 44))
			sets := make([]graph.Weights, 3)
			for p := range sets {
				sets[p] = make(graph.Weights, net.g.NumArcs())
			}
			redraw := func(_ graph.Arc, ws []int64) {
				w := draw(rng)
				copy(ws, w[:])
			}
			ws := make([]int64, 3)
			for a := range net.g.NumArcs() {
				redraw(graph.Arc(a), ws)
				for p, w := range ws {
					sets[p][a] = w
				}
			}
			f, err := fed.New(net.g, net.w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 45})
			if err != nil {
				t.Fatal(err)
			}
			x, err := Customize(f, sk)
			if err != nil {
				t.Fatal(err)
			}
			ref, refCost := referenceCustomize(t, f, sk)
			sameCustomization(t, tag, x, ref)
			cost := x.BuildStatistics().SAC
			if cost.Compares != refCost.Compares || cost.Rounds > refCost.Rounds {
				t.Fatalf("%s: %d comparisons in %d rounds, the bracket sweep takes %d in %d",
					tag, cost.Compares, cost.Rounds, refCost.Compares, refCost.Rounds)
			}
			checkExactDistances(t, f, x, 25, 46, tag)

			// The same through updates: redraw a tenth of the arcs (ties stay
			// ties) and the updated index must be the fresh one.
			for round := 0; round < 4; round++ {
				changed := pickArcs(f, rng, net.g.NumArcs()/10)
				f = nextVersion(f, changed, redraw)
				x, _ = mustUpdate(t, x, f, changed)
				ref, _ := referenceCustomize(t, f, sk)
				sameCustomization(t, tag+" updated", x, ref)
			}
		}
	}
}

// parentCost is {Fed-SACs, protocol instances, wire bytes} of one update in
// the seeded sequences of the update tests, recorded when Index.sweep became
// winner-aware (a dirty group compares only its old winner and the members
// that moved) on the 3-round carry circuit over the 48-bit ring. Each value is
// at most what the sweep that re-ran every dirty group's whole tournament
// paid for the same update.
type parentCost [3]int64

// checkUpdate holds one update to its pin: exactly the pinned comparisons, no
// more instances, bytes no more than 0.1 % above and below only by frame
// rounding, and an index byte-identical to a fresh customization at the new
// weights. Per ordered silo pair, an instance of width k rounds its
// bit-stream frames up to whole bytes — ⌈14k/8⌉ by at most ¾ B, ⌈k/8⌉ by at
// most ⅞ B, under 2 B in all, so under 12 B at 3 silos — and fewer
// instances round less.
func checkUpdate(t *testing.T, tag string, x *Index, st UpdateStats, parent parentCost) {
	t.Helper()
	drift := st.SAC.Bytes - parent[2]
	rounding := int64(3*2*2) * parent[1]
	if st.SAC.Compares != parent[0] || st.SAC.Rounds/mpc.RoundsPerCompare > parent[1] || 1000*drift > parent[2] || -drift > rounding {
		t.Fatalf("%s: update cost {%d, %d, %d} (comparisons, instances, bytes), pinned %v",
			tag, st.SAC.Compares, st.SAC.Rounds/mpc.RoundsPerCompare, st.SAC.Bytes, parent)
	}
	fresh, err := Customize(x.f, x.skel)
	if err != nil {
		t.Fatal(err)
	}
	sameCustomization(t, tag+": updated index against a fresh customization", x, fresh)
}
