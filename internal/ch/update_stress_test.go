package ch

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// federationFor wraps a topology in a 3-silo moderate-congestion federation.
func federationFor(t *testing.T, g *graph.Graph, w0 graph.Weights) *fed.Federation {
	t.Helper()
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 91)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUpdateOnlyIncreases(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 81)
	g := f.Graph()
	rng := rand.New(rand.NewPCG(21, 21))
	var changed []graph.Arc
	for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/8] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			f.Silo(p).SetWeight(a, f.Silo(p).Weight(a)*3)
		}
	}
	if _, err := x.Update(changed); err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("increase-only update: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
	checkShortcutInvariants(t, f, x)
}

func TestUpdateOnlyDecreases(t *testing.T) {
	// Weights fall back toward free flow: skipped shortcuts may become
	// needed via cheaper via paths (via arcs changed) — the other flip
	// direction.
	f, x := buildTestIndex(t, 8, 8, 83)
	g := f.Graph()
	rng := rand.New(rand.NewPCG(23, 23))
	var changed []graph.Arc
	for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/8] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			nw := f.Silo(p).Weight(a) / 3
			if nw < 1 {
				nw = 1
			}
			f.Silo(p).SetWeight(a, nw)
		}
	}
	if _, err := x.Update(changed); err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("decrease-only update: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}

func TestUpdateExtremeSingleArc(t *testing.T) {
	// One arc swings by 1000x in both directions across repeated updates;
	// queries crossing it must track exactly.
	f, x := buildTestIndex(t, 7, 7, 85)
	g := f.Graph()
	a := g.FindArc(24, 25) // central arc on the grid
	if a == graph.NoArc {
		a = 0
	}
	rng := rand.New(rand.NewPCG(25, 25))
	for round := 0; round < 6; round++ {
		factor := int64(1000)
		if round%2 == 1 {
			factor = 1
		}
		for p := 0; p < f.P(); p++ {
			f.Silo(p).SetWeight(a, f.StaticWeights()[a]*factor)
		}
		if _, err := x.Update([]graph.Arc{a}); err != nil {
			t.Fatal(err)
		}
		joint := f.JointWeights()
		for trial := 0; trial < 15; trial++ {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			tt := graph.Vertex(rng.IntN(g.NumVertices()))
			want, _ := graph.DijkstraTo(g, joint, s, tt)
			if got := chQueryJoint(x, s, tt); got != want {
				t.Fatalf("round %d: dist(%d,%d) = %d, want %d", round, s, tt, got, want)
			}
		}
	}
}

func TestUpdateConvergesAcrossManyRounds(t *testing.T) {
	// Ten successive random re-congestions: the index may only grow, and
	// every round must remain exact. Guards against drift/corruption in the
	// incremental maintenance state (skip records, parents, via index).
	f, x := buildTestIndex(t, 8, 8, 87)
	g := f.Graph()
	rng := rand.New(rand.NewPCG(27, 27))
	prevArcs := x.NumArcs()
	for round := 0; round < 10; round++ {
		var changed []graph.Arc
		for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/20] {
			a := graph.Arc(ai)
			changed = append(changed, a)
			for p := 0; p < f.P(); p++ {
				f.Silo(p).SetWeight(a, f.StaticWeights()[a]+rng.Int64N(40000)+1)
			}
		}
		if _, err := x.Update(changed); err != nil {
			t.Fatal(err)
		}
		if x.NumArcs() < prevArcs {
			t.Fatal("overlay shrank")
		}
		prevArcs = x.NumArcs()
		joint := f.JointWeights()
		for trial := 0; trial < 12; trial++ {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			tt := graph.Vertex(rng.IntN(g.NumVertices()))
			want, _ := graph.DijkstraTo(g, joint, s, tt)
			if got := chQueryJoint(x, s, tt); got != want {
				t.Fatalf("round %d: dist(%d,%d) = %d, want %d", round, s, tt, got, want)
			}
		}
	}
	checkShortcutInvariants(t, f, x)
}

// TestCustomizedUpdateNeverGrows is the regression test for the customized
// dynamic-update path: a witness-built index may legitimately grow higher-ID
// arcs when traffic flips witness decisions, but a CUSTOMIZED index has an
// immutable topology — Update must refresh the skeleton's weight slots in
// place and never append an arc, across many rounds of heavy re-congestion,
// while staying exactly Dijkstra-correct.
func TestCustomizedUpdateNeverGrows(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(260, 93)
	f := federationFor(t, g, w0)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	arcs0 := x.NumArcs()
	parent := []parentCost{
		{393, 384, 92502}, {466, 400, 109650}, {432, 392, 101658}, {431, 392, 101424}, {421, 384, 99054},
		{366, 392, 86154}, {434, 400, 102192}, {449, 400, 105642}, {435, 384, 102348}, {446, 400, 104934},
		{441, 400, 103782}, {419, 400, 98604}, {438, 400, 103074}, {410, 392, 96534}, {425, 376, 100002},
	}
	rng := rand.New(rand.NewPCG(31, 31))
	for round := 0; round < 15; round++ {
		var changed []graph.Arc
		for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/12] {
			a := graph.Arc(ai)
			changed = append(changed, a)
			for p := 0; p < f.P(); p++ {
				f.Silo(p).SetWeight(a, w0[a]+rng.Int64N(60000)+1)
			}
		}
		st, err := x.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
		if st.AddedShortcuts != 0 {
			t.Fatalf("round %d: customized update added %d shortcuts", round, st.AddedShortcuts)
		}
		if x.NumArcs() != arcs0 {
			t.Fatalf("round %d: overlay changed size %d -> %d (topology is immutable)", round, arcs0, x.NumArcs())
		}
		checkUpdate(t, fmt.Sprintf("round %d", round), x, st, parent[round])
		joint := f.JointWeights()
		for trial := 0; trial < 12; trial++ {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			tt := graph.Vertex(rng.IntN(g.NumVertices()))
			want, _ := graph.DijkstraTo(g, joint, s, tt)
			if got := chQueryJoint(x, s, tt); got != want {
				t.Fatalf("round %d: dist(%d,%d) = %d, want %d", round, s, tt, got, want)
			}
		}
	}
}

func TestUpdateOnRoadLikeTopology(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(300, 89)
	f := federationFor(t, g, w0)
	x, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(29, 29))
	var changed []graph.Arc
	for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/10] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			f.Silo(p).SetWeight(a, w0[a]*2+rng.Int64N(10000))
		}
	}
	if _, err := x.Update(changed); err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("road-like update: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}
