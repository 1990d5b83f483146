package ch

import (
	"bytes"
	"fmt"
	"math/rand/v2"
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

// jiggleWeights re-samples the silo weights of a random arc subset,
// returning the changed arcs.
func jiggleWeights(f *fed.Federation, rng *rand.Rand, frac float64) []graph.Arc {
	g := f.Graph()
	num := int(frac * float64(g.NumArcs()))
	if num < 1 {
		num = 1
	}
	changed := make([]graph.Arc, 0, num)
	for _, ai := range rng.Perm(g.NumArcs())[:num] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			factor := 0.6 + rng.Float64()*1.8
			nw := int64(float64(f.StaticWeights()[a]) * factor)
			if nw < 1 {
				nw = 1
			}
			f.Silo(p).SetWeight(a, nw)
		}
	}
	return changed
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
// give the identical index — children (the group winners), every partial
// weight.
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
		if len(x.childA) != len(ref.childA) {
			t.Fatal("arc count differs")
		}
		for a := range x.childA {
			if x.childA[a] != ref.childA[a] || x.childB[a] != ref.childB[a] {
				t.Fatalf("children of arc %d differ", a)
			}
		}
		for p := range x.siloW {
			for a := range x.siloW[p] {
				if x.siloW[p][a] != ref.siloW[p][a] {
					t.Fatalf("silo %d weight of arc %d differs", p, a)
				}
			}
		}
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
// of the topology/weight split (benchgate enforces the same bound on CAL-S).
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

// TestCustomizedUpdateInPlace: dynamic updates on a customized index refresh
// weight slots in place — the overlay never grows, children always compose,
// and queries stay exact across many rounds of churn.
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
		{1005, 568, 236238}, {1009, 560, 237162}, {1023, 568, 240456},
		{964, 560, 226596}, {988, 568, 232218}, {1009, 568, 237132},
	}
	rng := rand.New(rand.NewPCG(71, 71))
	for round := 0; round < 6; round++ {
		changed := jiggleWeights(f, rng, 0.12)
		st, err := x.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
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
	st, err := x.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.RecomputedShortcuts != 0 || st.ReverifiedVertices != 0 || st.SAC.Compares != 0 {
		t.Fatalf("no-op customized update did work: %+v", st)
	}
}

// TestCustomizedUpdateCleanConeIsFree: making an arc that already loses its
// group's tournament dearer re-runs that one tournament (a member changed)
// and nothing else — the winner and its partials stand, so every shortcut and
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
	winner := func(g int32) int32 { // as the group's first reader records it
		slot := pl.cons[pl.consStart[g]]
		return [2][]int32{x.childA, x.childB}[slot%2][int32(x.numBase)+slot/2]
	}
	scale := func(a int32, by int64) UpdateStats {
		for p := 0; p < f.P(); p++ {
			f.Silo(p).SetWeight(graph.Arc(a), by*f.Silo(p).Weight(graph.Arc(a)))
		}
		st, err := x.Update([]graph.Arc{graph.Arc(a)})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tried := 0
	for a := int32(0); a < int32(x.numBase) && tried < 8; a++ {
		grp := pl.groupOf[a]
		if len(pl.group(grp)) < 2 || pl.consStart[grp] == pl.consStart[grp+1] {
			continue // want a base arc with rivals and readers
		}
		tried++
		// Jam it until a detour wins its pair; that update does propagate.
		if st := scale(a, 50); winner(grp) == a || st.RecomputedShortcuts == 0 {
			t.Fatalf("arc %d: still elected at 50x its weight (%d shortcuts re-weighted)", a, st.RecomputedShortcuts)
		}
		st := scale(a, 2)
		if want := int64(len(pl.group(grp)) - 1); st.SAC.Compares != want || st.RecomputedShortcuts != 0 || st.ReverifiedVertices != 1 {
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
	parent := []parentCost{{478, 408, 112410}, {476, 400, 111978}, {445, 392, 104688}}
	rng := rand.New(rand.NewPCG(82, 82))
	for round := 0; round < 3; round++ {
		changed := jiggleWeights(f, rng, 0.1)
		st, err := x2.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
		if st.AddedShortcuts != 0 || x2.NumArcs() != arcsBefore {
			t.Fatalf("round %d: reloaded customized index grew", round)
		}
		checkUpdate(t, fmt.Sprintf("round %d", round), x2, st, parent[round])
		checkExactDistances(t, f, x2, 25, 83+uint64(round), "reloaded customized update")
	}
}
