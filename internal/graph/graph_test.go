package graph

import (
	"testing"
)

// diamond builds the small undirected example used throughout:
//
//	0 --- 1
//	|     |
//	2 --- 3 --- 4
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if got := g.NumVertices(); got != 5 {
		t.Fatalf("NumVertices = %d, want 5", got)
	}
	if got := g.NumArcs(); got != 10 {
		t.Fatalf("NumArcs = %d, want 10", got)
	}
	if got := g.OutDegree(3); got != 3 {
		t.Fatalf("OutDegree(3) = %d, want 3", got)
	}
	if got := g.InDegree(3); got != 3 {
		t.Fatalf("InDegree(3) = %d, want 3", got)
	}
	if got := g.OutDegree(4); got != 1 {
		t.Fatalf("OutDegree(4) = %d, want 1", got)
	}
}

func TestArcSlotInvariant(t *testing.T) {
	// Arc IDs must equal out-adjacency slots: Tail/Head derived from the slot
	// must agree with adjacency iteration.
	g := diamond(t)
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		first := g.FirstOut(v)
		for i, u := range g.OutNeighbors(v) {
			a := first + Arc(i)
			if g.Tail(a) != v {
				t.Fatalf("Tail(%d) = %d, want %d", a, g.Tail(a), v)
			}
			if g.Head(a) != u {
				t.Fatalf("Head(%d) = %d, want %d", a, g.Head(a), u)
			}
		}
	}
}

func TestInAdjacencyMatchesOut(t *testing.T) {
	g, _ := GenerateRandomDirected(50, 200, 100, 7)
	// Every arc must appear exactly once in the in-adjacency of its head.
	counts := make(map[Arc]int)
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		in, arcs := g.InNeighbors(v)
		for i, u := range in {
			a := arcs[i]
			if g.Tail(a) != u || g.Head(a) != v {
				t.Fatalf("in-adjacency arc %d claims (%d,%d), graph says (%d,%d)",
					a, u, v, g.Tail(a), g.Head(a))
			}
			counts[a]++
		}
	}
	if len(counts) != g.NumArcs() {
		t.Fatalf("in-adjacency covers %d arcs, want %d", len(counts), g.NumArcs())
	}
	for a, c := range counts {
		if c != 1 {
			t.Fatalf("arc %d appears %d times in in-adjacency", a, c)
		}
	}
}

func TestFindArc(t *testing.T) {
	g := diamond(t)
	if a := g.FindArc(0, 1); a == NoArc || g.Head(a) != 1 || g.Tail(a) != 0 {
		t.Fatalf("FindArc(0,1) = %d", a)
	}
	if a := g.FindArc(0, 4); a != NoArc {
		t.Fatalf("FindArc(0,4) = %d, want NoArc", a)
	}
}

// stronglyConnected reports whether every vertex reaches every other: the
// importer's SCC pass finds at most one component.
func stronglyConnected(g *Graph) bool {
	_, _, count := sccLabels(g)
	return count <= 1
}

func TestConnectivity(t *testing.T) {
	if !stronglyConnected(diamond(t)) {
		t.Fatal("diamond (bidirectional) should be strongly connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, _, count := sccLabels(b.Build()); count != 2 {
		t.Fatalf("two two-way roads: %d components, want 2", count)
	}
	// One-way arc only: each end is its own component.
	b2 := NewBuilder(2)
	b2.AddArc(0, 1)
	if _, _, count := sccLabels(b2.Build()); count != 2 {
		t.Fatalf("single arc: %d components, want 2", count)
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range arc")
		}
	}()
	NewBuilder(2).AddArc(0, 5)
}

func TestValidateWeights(t *testing.T) {
	g := diamond(t)
	w := make(Weights, g.NumArcs())
	for i := range w {
		w[i] = 10
	}
	if err := ValidateWeights(g, w); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
	w[3] = 0
	if err := ValidateWeights(g, w); err == nil {
		t.Fatal("zero weight accepted")
	}
	w[3] = MaxWeight
	if err := ValidateWeights(g, w); err == nil {
		t.Fatal("oversized weight accepted")
	}
	if err := ValidateWeights(g, w[:3]); err == nil {
		t.Fatal("short weight set accepted")
	}
}

func TestJointWeights(t *testing.T) {
	w1 := Weights{2, 4, 6}
	w2 := Weights{4, 4, 2}
	joint := JointWeights([]Weights{w1, w2})
	want := Weights{6, 8, 8} // sums (means scaled by P), per Eq. 1 note
	for i := range want {
		if joint[i] != want[i] {
			t.Fatalf("joint[%d] = %d, want %d", i, joint[i], want[i])
		}
	}
	if JointWeights(nil) != nil {
		t.Fatal("JointWeights(nil) should be nil")
	}
}

func TestPathCost(t *testing.T) {
	g := diamond(t)
	w := make(Weights, g.NumArcs())
	for i := range w {
		w[i] = int64(i + 1)
	}
	got, err := PathCost(g, w, []Vertex{0, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := w[g.FindArc(0, 1)] + w[g.FindArc(1, 3)] + w[g.FindArc(3, 4)]
	if got != want {
		t.Fatalf("PathCost = %d, want %d", got, want)
	}
	if _, err := PathCost(g, w, []Vertex{0, 4}); err == nil {
		t.Fatal("disconnected path accepted")
	}
	if c, err := PathCost(g, w, []Vertex{2}); err != nil || c != 0 {
		t.Fatalf("single-vertex path: cost %d err %v", c, err)
	}
}

func TestUnitIfMissing(t *testing.T) {
	g, w0 := GenerateGrid(3, 3, 1)
	if w, unit := UnitIfMissing(g, w0); unit || &w[0] != &w0[0] {
		t.Fatal("a weighted graph's weights were replaced")
	}
	w, unit := UnitIfMissing(g, nil)
	if !unit || len(w) != g.NumArcs() {
		t.Fatalf("weightless graph: unit=%v, %d weights for %d arcs", unit, len(w), g.NumArcs())
	}
	for a, x := range w {
		if x != 1 {
			t.Fatalf("arc %d: weight %d, want 1", a, x)
		}
	}
}
