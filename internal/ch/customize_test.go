package ch

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

func customizeFederation(t *testing.T, g *graph.Graph, w0 graph.Weights, seed uint64) *fed.Federation {
	t.Helper()
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, seed)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// nextVersion is the traffic version after f, as a traffic batch publishes
// it: fresh weight sets, equal to f's except on the changed arcs, where
// draw(a, ws) fills ws[p] with silo p's new weight of a — arc by arc, in the
// listed order.
func nextVersion(f *fed.Federation, changed []graph.Arc, draw func(a graph.Arc, ws []int64)) *fed.Federation {
	sets := make([]graph.Weights, f.P())
	for p := range sets {
		sets[p] = slices.Clone(f.Silo(p).Weights())
	}
	ws := make([]int64, f.P())
	for _, a := range changed {
		draw(a, ws)
		for p, w := range ws {
			sets[p][a] = w
		}
	}
	return f.WithWeights(sets)
}

// pickArcs lists the first num arcs of a random permutation of f's arcs.
func pickArcs(f *fed.Federation, rng *rand.Rand, num int) []graph.Arc {
	var arcs []graph.Arc
	for _, a := range rng.Perm(f.Graph().NumArcs())[:num] {
		arcs = append(arcs, graph.Arc(a))
	}
	return arcs
}

// jiggleWeights re-samples the silo weights of a random arc subset, returning
// the next version and the changed arcs.
func jiggleWeights(f *fed.Federation, rng *rand.Rand, frac float64) (*fed.Federation, []graph.Arc) {
	changed := pickArcs(f, rng, max(int(frac*float64(f.Graph().NumArcs())), 1))
	return nextVersion(f, changed, func(a graph.Arc, ws []int64) {
		for p := range ws {
			ws[p] = max(int64(float64(f.StaticWeights()[a])*(0.6+rng.Float64()*1.8)), 1)
		}
	}), changed
}

// mustUpdate is x.Update to next, failing the test on an error.
func mustUpdate(t *testing.T, x *Index, next *fed.Federation, changed []graph.Arc) (*Index, UpdateStats) {
	t.Helper()
	y, st, err := x.Update(next, changed)
	if err != nil {
		t.Fatal(err)
	}
	return y, st
}

func checkExactDistances(t *testing.T, f *fed.Federation, x *Index, trials int, seed uint64, tag string) {
	t.Helper()
	g := f.Graph()
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(seed, seed))
	for trial := 0; trial < trials; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("%s: trial %d: dist(%d,%d) = %d, want %d", tag, trial, s, tt, got, want)
		}
	}
}

func TestCustomizeMatchesDijkstra(t *testing.T) {
	g, w0 := graph.GenerateGrid(9, 9, 51)
	f := customizeFederation(t, g, w0, 52)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumShortcuts() == 0 {
		t.Fatal("skeleton has no shortcuts")
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Customized() || x.Skeleton() != sk {
		t.Fatal("customized index does not report its skeleton")
	}
	st := x.BuildStatistics()
	if !st.Customized || st.Levels <= 0 {
		t.Fatalf("customize stats not populated: %+v", st)
	}
	checkExactDistances(t, f, x, 60, 53, "grid customize")
	checkShortcutInvariants(t, f, x)
}

func TestCustomizeOnRoadLikeNetwork(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(350, 55)
	f := customizeFederation(t, g, w0, 56)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	checkExactDistances(t, f, x, 40, 57, "roadlike customize")
	checkShortcutInvariants(t, f, x)
}

// TestCustomizeRepeatable: two sweeps over the same skeleton and weights must
// give the identical index — the group winners, every partial weight.
func TestCustomizeRepeatable(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 62)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Index
	for run := 0; run < 2; run++ {
		f := customizeFederation(t, g, w0, 63) // same seed -> same silo weights
		x, err := Customize(f, sk)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			ref = x
			continue
		}
		if len(x.win) != len(ref.win) {
			t.Fatal("group count differs")
		}
		for g := range x.win {
			if x.win[g] != ref.win[g] {
				t.Fatalf("winner of pair group %d differs", g)
			}
		}
		got, want := arcPartials(x), arcPartials(ref)
		for p := range got {
			for a := range got[p] {
				if got[p][a] != want[p][a] {
					t.Fatalf("silo %d weight of arc %d differs", p, a)
				}
			}
		}
	}
}

// checkWinnerLists holds a customized index to what the query may read: the
// lists of every vertex hold exactly one arc per incident pair group — all
// overlay arcs with its (tail, head), routed by rank — and that arc is the
// group's earliest joint minimum; every shortcut is composed of the winners
// of its two child groups. Groups and winners are recomputed here from the
// arcs and their joint weights, not read off the plan.
func checkWinnerLists(t *testing.T, tag string, x *Index) {
	t.Helper()
	type pair [2]graph.Vertex
	winner := map[pair]int32{}
	for a := int32(0); a < int32(x.NumArcs()); a++ {
		k := pair{x.Tail(a), x.Head(a)}
		if w, ok := winner[k]; !ok || x.JointWeight(a) < x.JointWeight(w) {
			winner[k] = a
		}
	}
	listed := map[pair]bool{}
	for v := graph.Vertex(0); int(v) < len(x.rank); v++ {
		for dir, arcs := range [][]int32{x.UpOut(v), x.DownIn(v)} {
			for _, a := range arcs {
				k := pair{x.Tail(a), x.Head(a)}
				up := x.Rank(k[1]) > x.Rank(k[0])
				if up != (dir == 0) || k[dir] != v {
					t.Fatalf("%s: arc %d (%d→%d) listed in the wrong list of vertex %d", tag, a, k[0], k[1], v)
				}
				if listed[k] {
					t.Fatalf("%s: pair %d→%d listed twice", tag, k[0], k[1])
				}
				listed[k] = true
				if a != winner[k] {
					t.Fatalf("%s: pair %d→%d lists arc %d (joint %d), its earliest minimum is %d (joint %d)",
						tag, k[0], k[1], a, x.JointWeight(a), winner[k], x.JointWeight(winner[k]))
				}
			}
		}
	}
	if len(listed) != len(winner) {
		t.Fatalf("%s: %d pair groups listed, the overlay has %d", tag, len(listed), len(winner))
	}
	for a := int32(x.numBase); a < int32(x.NumArcs()); a++ {
		ca, cb := x.children(a)
		if ca != winner[pair{x.Tail(a), x.Via(a)}] || cb != winner[pair{x.Via(a), x.Head(a)}] {
			t.Fatalf("%s: shortcut %d composed of (%d,%d), not its child groups' winners", tag, a, ca, cb)
		}
	}
}

// TestQueryListsHoldTheWinners: after a customization, after every step of a
// seeded update sequence and after a WriteIndex/ReadIndex cycle, the query
// lists hold exactly the pair groups' winners. Silo weights drawn from {1, 2}
// make most groups tie, so only the earliest-minimum rule names the winner.
func TestQueryListsHoldTheWinners(t *testing.T) {
	gr, wr := graph.GenerateRoadLike(240, 84)
	gg, wg := graph.GenerateGrid(8, 9, 85)
	for _, net := range []network{{"road", gr, wr}, {"grid", gg, wg}} {
		rng := rand.New(rand.NewPCG(86, 87))
		draw := tieHeavy()["one-or-two"]
		sets := make([]graph.Weights, 3)
		for p := range sets {
			sets[p] = make(graph.Weights, net.g.NumArcs())
		}
		for a := 0; a < net.g.NumArcs(); a++ {
			for p, w := range draw(rng) {
				sets[p][a] = w
			}
		}
		f, err := fed.New(net.g, net.w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 88})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := BuildSkeleton(net.g)
		if err != nil {
			t.Fatal(err)
		}
		x, err := Customize(f, sk)
		if err != nil {
			t.Fatal(err)
		}
		checkWinnerLists(t, net.name+" customized", x)
		for step := 0; step < 5; step++ {
			changed := pickArcs(f, rng, net.g.NumArcs()/8)
			f = nextVersion(f, changed, func(_ graph.Arc, ws []int64) {
				w := draw(rng)
				copy(ws, w[:])
			})
			x, _ = mustUpdate(t, x, f, changed)
			checkWinnerLists(t, fmt.Sprintf("%s update %d", net.name, step), x)
		}
		derived, err := BuildSkeleton(net.g)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(f, bytes.NewReader(indexBytes(t, x)), derived)
		if err != nil {
			t.Fatal(err)
		}
		checkWinnerLists(t, net.name+" reloaded", loaded)
	}
}

// TestCustomizeAgreesWithFullBuild: distances through a customized index and
// through a from-scratch witness-pruned build at the same weights must be
// byte-identical.
func TestCustomizeAgreesWithFullBuild(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 64)
	f := customizeFederation(t, g, w0, 65)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	f2 := customizeFederation(t, g, w0, 65)
	built, err := Build(f2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(66, 66))
	for trial := 0; trial < 80; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		if a, b := chQueryJoint(cust, s, tt), chQueryJoint(built, s, tt); a != b {
			t.Fatalf("dist(%d,%d): customized %d != built %d", s, tt, a, b)
		}
	}
}

// TestCustomizeRoundFrugality: re-customizing after a traffic change must
// cost well under a quarter of the full build's MPC rounds — the whole point
// of the topology/weight split.
func TestCustomizeRoundFrugality(t *testing.T) {
	g, w0 := graph.GenerateGrid(10, 10, 67)
	f := customizeFederation(t, g, w0, 68)
	built, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	buildRounds := built.BuildStatistics().SAC.Rounds
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	f2 := customizeFederation(t, g, w0, 68)
	cust, err := Customize(f2, sk)
	if err != nil {
		t.Fatal(err)
	}
	custRounds := cust.BuildStatistics().SAC.Rounds
	if custRounds <= 0 {
		t.Fatal("customization used no MPC rounds")
	}
	if 4*custRounds >= buildRounds {
		t.Fatalf("customize rounds %d not under 25%% of build rounds %d", custRounds, buildRounds)
	}
}

// TestCalS300DerivationCountsPinned pins both index derivations of the CAL-S
// row at 300 vertices in ideal mode — the federation
// `fedbench -datasets CAL-S -max-vertices 300 build` builds. Fed-SACs
// and MPC rounds are functions of dataset and seed alone, so they are pinned
// exactly; a change that moves them re-pins here with the reason.
func TestCalS300DerivationCountsPinned(t *testing.T) {
	spec, ok := graph.FindDataset("CAL-S")
	if !ok {
		t.Fatal("CAL-S is not a dataset")
	}
	g, w0 := graph.GenerateRoadLike(300, spec.Seed)
	derive := func(customize bool) mpc.Stats {
		t.Helper()
		sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 1+spec.Seed)
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var x *Index
		if customize {
			var sk *Skeleton
			if sk, err = BuildSkeleton(g); err == nil {
				x, err = Customize(f, sk)
			}
		} else {
			x, err = Build(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		return x.BuildStatistics().SAC
	}
	build, cust := derive(false), derive(true)
	if build.Compares != 96026 || build.Rounds != 14568 {
		t.Errorf("build: %d Fed-SACs / %d rounds, pinned 96026 / 14568", build.Compares, build.Rounds)
	}
	if cust.Compares != 1054 || cust.Rounds != 60 {
		t.Errorf("customize: %d Fed-SACs / %d rounds, pinned 1054 / 60", cust.Compares, cust.Rounds)
	}
	if 4*cust.Rounds >= build.Rounds {
		t.Errorf("customize rounds %d not under 25%% of build rounds %d", cust.Rounds, build.Rounds)
	}
}

// TestCustomizedUpdateInPlace: dynamic updates on a customized index keep its
// topology in place — the overlay never grows, children always compose, and
// queries stay exact across many rounds of churn.
func TestCustomizedUpdateInPlace(t *testing.T) {
	g, w0 := graph.GenerateGrid(9, 9, 69)
	f := customizeFederation(t, g, w0, 70)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	arcsBefore := x.NumArcs()
	parent := []parentCost{
		{797, 21, 37764}, {798, 21, 37812}, {753, 18, 35664},
		{810, 22, 38382}, {806, 22, 38196}, {807, 21, 38232},
	}
	rng := rand.New(rand.NewPCG(71, 71))
	for round := 0; round < 6; round++ {
		var changed []graph.Arc
		f, changed = jiggleWeights(f, rng, 0.12)
		var st UpdateStats
		x, st = mustUpdate(t, x, f, changed)
		if st.AddedShortcuts != 0 {
			t.Fatalf("round %d: customized update added %d shortcuts", round, st.AddedShortcuts)
		}
		if x.NumArcs() != arcsBefore {
			t.Fatalf("round %d: overlay grew from %d to %d arcs", round, arcsBefore, x.NumArcs())
		}
		checkUpdate(t, fmt.Sprintf("round %d", round), x, st, parent[round])
		checkExactDistances(t, f, x, 30, 72+uint64(round), "customized update")
		checkShortcutInvariants(t, f, x)
	}
}

func TestCustomizedUpdateNoChangesIsFree(t *testing.T) {
	g, w0 := graph.GenerateGrid(6, 6, 73)
	f := customizeFederation(t, g, w0, 74)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	_, st := mustUpdate(t, x, f, nil)
	if st.RecomputedShortcuts != 0 || st.ReverifiedVertices != 0 || st.SAC.Compares != 0 {
		t.Fatalf("no-op customized update did work: %+v", st)
	}
}

// TestCustomizedUpdateCleanConeIsFree: making an arc that already loses its
// group's tournament dearer compares it once with the group's old winner
// (one member moved, the winner did not) and nothing else — the winner and its partials stand, so every shortcut and
// group downstream, though in the dirty arc's static cone, ends clean and
// must spend no comparison.
func TestCustomizedUpdateCleanConeIsFree(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 47)
	f := customizeFederation(t, g, w0, 48)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	pl := sk.Plan()
	rw := pl.rows()
	winner := func(g int32) int32 { // as the group's first reader composes it
		slot := rw.cons[rw.consStart[g]]
		ca, cb := x.children(int32(x.numBase) + slot/2)
		return [2]int32{ca, cb}[slot%2]
	}
	scale := func(a int32, by int64) (st UpdateStats) {
		changed := []graph.Arc{graph.Arc(a)}
		f = nextVersion(f, changed, func(a graph.Arc, ws []int64) {
			for p := range ws {
				ws[p] = by * f.Silo(p).Weight(a)
			}
		})
		x, st = mustUpdate(t, x, f, changed)
		return st
	}
	tried := 0
	for a := int32(0); a < int32(x.numBase) && tried < 8; a++ {
		grp := pl.groupOf[a]
		if len(rw.group(grp)) < 2 || rw.consStart[grp] == rw.consStart[grp+1] {
			continue // want a base arc with rivals and readers
		}
		tried++
		// Jam it until a detour wins its pair; that update does propagate.
		if st := scale(a, 50); winner(grp) == a || st.RecomputedShortcuts == 0 {
			t.Fatalf("arc %d: still elected at 50x its weight (%d shortcuts re-weighted)", a, st.RecomputedShortcuts)
		}
		st := scale(a, 2)
		if want := int64(1); st.SAC.Compares != want || st.RecomputedShortcuts != 0 || st.ReverifiedVertices != 1 {
			t.Fatalf("arc %d: %d comparisons, %d shortcuts re-weighted, %d tournaments; want %d, 0, 1",
				a, st.SAC.Compares, st.RecomputedShortcuts, st.ReverifiedVertices, want)
		}
		checkExactDistances(t, f, x, 10, 49+uint64(a), "clean cone")
	}
	if tried == 0 {
		t.Fatal("no base arc with rivals and readers on this grid")
	}
}

// TestBundleRoundTripCustomized: a WriteIndex/ReadIndex cycle against the
// skeleton re-derived from the graph preserves the customized index, and
// in-place updates keep working after reload (its children carry the group
// winners). The stream holds no skeleton: a witness-built index's stream, or
// a skeleton of another graph, must not attach.
func TestBundleRoundTripCustomized(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 7, 80)
	f := customizeFederation(t, g, w0, 81)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	derived, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := ReadIndex(f, bytes.NewReader(buf.Bytes()), derived)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Skeleton() != derived || !x2.BuildStatistics().Customized {
		t.Fatal("reloaded index is not attached to the skeleton it was read against")
	}

	built, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	var wb bytes.Buffer
	if err := built.WriteIndex(&wb); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(f, &wb, derived); err == nil {
		t.Fatal("a witness-built index attached to a skeleton")
	}
	g2, _ := graph.GenerateGrid(7, 8, 80)
	other, err := BuildSkeleton(g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(f, bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("a skeleton of another graph attached")
	}

	arcsBefore := x2.NumArcs()
	parent := []parentCost{{376, 19, 17844}, {351, 16, 16644}, {331, 16, 15720}}
	rng := rand.New(rand.NewPCG(82, 82))
	for round := 0; round < 3; round++ {
		var changed []graph.Arc
		f, changed = jiggleWeights(f, rng, 0.1)
		var st UpdateStats
		x2, st = mustUpdate(t, x2, f, changed)
		if st.AddedShortcuts != 0 || x2.NumArcs() != arcsBefore {
			t.Fatalf("round %d: reloaded customized index grew", round)
		}
		checkUpdate(t, fmt.Sprintf("round %d", round), x2, st, parent[round])
		checkExactDistances(t, f, x2, 25, 83+uint64(round), "reloaded customized update")
	}
}

// TestUpdateComparesOnlyTheOldWinnerAndMovers pins the winner-aware rule on
// a fan: four middle vertices between a and b (the highest IDs, so every
// middle contracts first) give the pair group a→b the base arc and four
// shortcuts, g = 5 members. A member that did not move lost to an old winner
// that did not move, so moving one loser costs one comparison; moving the
// winner costs g−1; moving nothing costs none. Each updated index must equal
// a fresh customization.
func TestUpdateComparesOnlyTheOldWinnerAndMovers(t *testing.T) {
	const a, b = 4, 5
	bl := graph.NewBuilder(6)
	bl.AddEdge(a, b)
	for m := graph.Vertex(0); m < a; m++ {
		bl.AddEdge(a, m)
		bl.AddEdge(m, b)
	}
	g := bl.Build()
	arc := func(u, v graph.Vertex) graph.Arc {
		for e := range g.NumArcs() {
			if g.Tail(graph.Arc(e)) == u && g.Head(graph.Arc(e)) == v {
				return graph.Arc(e)
			}
		}
		t.Fatalf("no arc %d→%d", u, v)
		return graph.NoArc
	}
	// Each silo holds 50 on a–b and 10+m on each leg through middle m: the
	// path through middle 0 wins, the base arc loses.
	w0 := make(graph.Weights, g.NumArcs())
	for e := range w0 {
		w0[e] = 10 + int64(min(g.Tail(graph.Arc(e)), g.Head(graph.Arc(e))))
		if w0[e] == 10+a {
			w0[e] = 50
		}
	}
	f, err := fed.New(g, w0, []graph.Weights{w0, w0, w0}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	pl := sk.Plan()
	grp := pl.groupOf[arc(a, b)]
	if n := len(pl.rows().group(grp)); n != 5 {
		t.Fatalf("pair group a→b holds %d members, want 5", n)
	}
	set := func(tag string, e graph.Arc, w int64, compares, instances int64) {
		t.Helper()
		f = nextVersion(f, []graph.Arc{e}, func(_ graph.Arc, ws []int64) {
			for p := range ws {
				ws[p] = w
			}
		})
		var st UpdateStats
		x, st = mustUpdate(t, x, f, []graph.Arc{e})
		if st.SAC.Compares != compares || st.SAC.Rounds/mpc.RoundsPerCompare != instances {
			t.Fatalf("%s: %d Fed-SACs in %d instances, want %d in %d",
				tag, st.SAC.Compares, st.SAC.Rounds/mpc.RoundsPerCompare, compares, instances)
		}
		fresh, err := Customize(f, sk)
		if err != nil {
			t.Fatal(err)
		}
		sameCustomization(t, tag, x, fresh)
	}
	viaOf := func() graph.Vertex { return x.via[x.win[grp]] }
	if viaOf() != 0 {
		t.Fatalf("a→b elected the path via %d, want via 0", viaOf())
	}
	set("a loser moves", arc(a, b), 40, 1, 1)
	set("a loser overtakes", arc(a, 3), 1, 1, 1)
	if viaOf() != 3 {
		t.Fatalf("a→b elected the path via %d after its leg fell, want via 3", viaOf())
	}
	set("the winner moves", arc(a, 3), 100, 4, 3)
	if viaOf() != 0 {
		t.Fatalf("a→b elected the path via %d after the winner's leg rose, want via 0", viaOf())
	}
	set("nothing moves", arc(a, 1), w0[arc(a, 1)], 0, 0)
}
