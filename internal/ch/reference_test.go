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
// reference: hierarchy levels bottom-up, each level first re-summing its
// shortcuts from the winners below, then running the tournaments of every
// group whose deepest member sits there as brackets over the members in arc
// order, bracket round r of all of them in one Fed-SAC instance. A level
// costs ⌈log2 of its largest group⌉ instances however far that group is from
// the chain that decides the sweep's length — which is what the scheduler
// stops paying — but the comparisons are the same in number and the winners
// are the same arcs.

// groupWinners decides the given pair groups: the joint-minimum member
// (earliest on ties) of each, all brackets sharing one instance per round.
func (x *Index) groupWinners(sac *fed.SAC, pl *custPlan, duel []int32) []int32 {
	slates := make([][]fed.Partial, len(duel))
	for i, g := range duel {
		for _, a := range pl.group(g) {
			slates[i] = append(slates[i], x.Partial(a))
		}
	}
	out := make([]int32, len(duel))
	for i, w := range earliestMinGroups(sac, slates) {
		out[i] = pl.group(duel[i])[w]
	}
	return out
}

// referenceCustomize runs the level-synchronous sweep on a fresh federation
// fork and returns the index (children, partials; no query lists)
// with the Fed-SAC cost it paid.
func referenceCustomize(t *testing.T, f *fed.Federation, sk *Skeleton) (*Index, mpc.Stats) {
	t.Helper()
	c, err := NewCustomizer(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.wf.Engine().Close()
	x, pl, sac := c.x, sk.Plan(), c.wf.NewSAC()

	// lvl(base arc) = 0, lvl(shortcut) = 1 + max lvl over both child groups'
	// members; a group is decided at the level of its deepest member.
	m, nb := len(sk.tail), sk.numBase
	lvl, groupLvl := make([]int32, m), make([]int32, pl.nGrp)
	for a := nb; a < m; a++ {
		lvl[a] = 1 + max(groupLvl[pl.kids[2*(a-nb)]], groupLvl[pl.kids[2*(a-nb)+1]])
		g := pl.groupOf[a]
		groupLvl[g] = max(groupLvl[g], lvl[a])
	}
	shortcutsAt := make([][]int32, pl.maxLvl+1)
	for a := nb; a < m; a++ {
		shortcutsAt[lvl[a]] = append(shortcutsAt[lvl[a]], int32(a))
	}
	groupsAt := make([][]int32, pl.maxLvl+1)
	win := make([]int32, pl.nGrp)
	for g := range win {
		members := pl.group(int32(g))
		win[g] = members[0]
		if len(members) > 1 {
			groupsAt[groupLvl[g]] = append(groupsAt[groupLvl[g]], int32(g))
		}
	}
	for l := 0; l <= pl.maxLvl; l++ {
		for _, a := range shortcutsAt[l] {
			ca, cb := win[pl.kids[2*(a-int32(nb))]], win[pl.kids[2*(a-int32(nb))+1]]
			x.childA[a], x.childB[a] = ca, cb
			for _, ws := range x.siloW {
				ws[a] = ws[ca] + ws[cb]
			}
		}
		for i, w := range x.groupWinners(sac, pl, groupsAt[l]) {
			win[groupsAt[l][i]] = w
		}
		if err := sac.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return x, c.wf.Engine().Stats()
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
// on everything a sweep decides: every shortcut's children — the winners of
// every group a shortcut reads — and every partial weight.
func sameCustomization(t *testing.T, tag string, got, want *Index) {
	t.Helper()
	for a := range want.childA {
		if got.childA[a] != want.childA[a] || got.childB[a] != want.childB[a] {
			t.Fatalf("%s: arc %d composed of (%d,%d), reference (%d,%d)", tag, a,
				got.childA[a], got.childB[a], want.childA[a], want.childB[a])
		}
		for p := range want.siloW {
			if got.siloW[p][a] != want.siloW[p][a] {
				t.Fatalf("%s: silo %d weight of arc %d is %d, reference %d", tag, p, a, got.siloW[p][a], want.siloW[p][a])
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
			redraw := func(a graph.Arc) [3]int64 {
				w := draw(rng)
				for p := range sets {
					sets[p][a] = w[p]
				}
				return w
			}
			for a := 0; a < net.g.NumArcs(); a++ {
				redraw(graph.Arc(a))
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

			// The same through in-place updates: redraw a tenth of the arcs
			// (ties stay ties) and the updated index must be the fresh one.
			for round := 0; round < 4; round++ {
				var changed []graph.Arc
				for _, ai := range rng.Perm(net.g.NumArcs())[:net.g.NumArcs()/10] {
					a := graph.Arc(ai)
					w := redraw(a)
					for p := 0; p < f.P(); p++ {
						f.Silo(p).SetWeight(a, w[p])
					}
					changed = append(changed, a)
				}
				if _, err := x.Update(changed); err != nil {
					t.Fatal(err)
				}
				ref, _ := referenceCustomize(t, f, sk)
				sameCustomization(t, tag+" updated", x, ref)
			}
		}
	}
}

// parentCost is UpdateStats.SAC.{Compares, Rounds, Bytes} of one in-place
// update as the level-synchronous sweep ran it at c495f6e, recorded there for
// the seeded sequences of the update tests before the update moved onto
// Index.sweep.
type parentCost [3]int64

// checkUpdate holds one in-place update to what it replaced: the same
// comparisons, no more rounds, bytes no more than 0.1 % above and below only
// by frame rounding (an instance rounds 7 frames per ordered silo pair up to
// whole bytes — under 42 B at 3 silos — and fewer instances round less), and
// an index byte-identical to a fresh customization at the new weights.
func checkUpdate(t *testing.T, tag string, x *Index, st UpdateStats, parent parentCost) {
	t.Helper()
	drift := st.SAC.Bytes - parent[2]
	if st.SAC.Compares != parent[0] || st.SAC.Rounds > parent[1] || 1000*drift > parent[2] || -drift > 42*parent[1]/8 {
		t.Fatalf("%s: update cost {%d, %d, %d} (comparisons, rounds, bytes), level-synchronous sweep {%d, %d, %d}",
			tag, st.SAC.Compares, st.SAC.Rounds, st.SAC.Bytes, parent[0], parent[1], parent[2])
	}
	fresh, err := Customize(x.f, x.skel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indexBytes(t, x), indexBytes(t, fresh)) {
		t.Fatalf("%s: updated index differs from a fresh customization", tag)
	}
}
