package graph

import (
	"bytes"
	"testing"
)

func TestGenerateGridProperties(t *testing.T) {
	g, w0 := GenerateGrid(12, 15, 3)
	if g.NumVertices() != 12*15 {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), 12*15)
	}
	if !stronglyConnected(g) {
		t.Fatal("grid must be strongly connected")
	}
	if err := ValidateWeights(g, w0); err != nil {
		t.Fatalf("invalid static weights: %v", err)
	}
	if !g.HasCoordinates() {
		t.Fatal("grid must carry coordinates")
	}
	// Every road appears in both directions.
	for a := 0; a < g.NumArcs(); a++ {
		if g.FindArc(g.Head(Arc(a)), g.Tail(Arc(a))) == NoArc {
			t.Fatalf("arc %d has no reverse", a)
		}
	}
}

func TestGenerateGridDeterministic(t *testing.T) {
	g1, w1 := GenerateGrid(10, 10, 77)
	g2, w2 := GenerateGrid(10, 10, 77)
	if g1.NumArcs() != g2.NumArcs() {
		t.Fatalf("arc counts differ: %d vs %d", g1.NumArcs(), g2.NumArcs())
	}
	for a := 0; a < g1.NumArcs(); a++ {
		if g1.Tail(Arc(a)) != g2.Tail(Arc(a)) || g1.Head(Arc(a)) != g2.Head(Arc(a)) || w1[a] != w2[a] {
			t.Fatalf("arc %d differs between runs", a)
		}
	}
	g3, _ := GenerateGrid(10, 10, 78)
	same := g1.NumArcs() == g3.NumArcs()
	if same {
		for a := 0; a < g1.NumArcs(); a++ {
			if g1.Head(Arc(a)) != g3.Head(Arc(a)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical grids")
	}
}

func TestGenerateRoadLikeProperties(t *testing.T) {
	g, w0 := GenerateRoadLike(500, 9)
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d, want 500", g.NumVertices())
	}
	if !stronglyConnected(g) {
		t.Fatal("road-like network must be strongly connected")
	}
	if err := ValidateWeights(g, w0); err != nil {
		t.Fatalf("invalid static weights: %v", err)
	}
	// Road networks are sparse: average degree well under 8.
	if avg := float64(g.NumArcs()) / float64(g.NumVertices()); avg > 8 {
		t.Fatalf("average out-degree %.1f too high for a road network", avg)
	}
}

func TestGenerateRoadLikeDeterministic(t *testing.T) {
	g1, w1 := GenerateRoadLike(300, 4)
	g2, w2 := GenerateRoadLike(300, 4)
	if g1.NumArcs() != g2.NumArcs() {
		t.Fatalf("arc counts differ")
	}
	for a := 0; a < g1.NumArcs(); a++ {
		if g1.Head(Arc(a)) != g2.Head(Arc(a)) || w1[a] != w2[a] {
			t.Fatalf("arc %d differs between runs", a)
		}
	}
}

func TestGenerateRandomDirectedStronglyConnected(t *testing.T) {
	g, w := GenerateRandomDirected(40, 100, 25, 6)
	if !stronglyConnected(g) {
		t.Fatal("random directed graph must be strongly connected")
	}
	if err := ValidateWeights(g, w); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetRegistry(t *testing.T) {
	specs := Datasets()
	if len(specs) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(specs))
	}
	// CAL-S is small enough to materialize in a unit test.
	g, w0, spec := GenerateDataset("CAL-S")
	if spec.Name != "CAL-S" {
		t.Fatalf("spec name %q", spec.Name)
	}
	if g.NumVertices() != spec.Vertices {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), spec.Vertices)
	}
	if !stronglyConnected(g) {
		t.Fatal("CAL-S must be strongly connected")
	}
	if err := ValidateWeights(g, w0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset must panic")
		}
	}()
	GenerateDataset("NOPE")
}

func TestIORoundTrip(t *testing.T) {
	g, w := GenerateRoadLike(120, 13)
	var buf bytes.Buffer
	if err := WriteTo(&buf, g, w); err != nil {
		t.Fatal(err)
	}
	g2, w2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("size mismatch after round trip")
	}
	for a := 0; a < g.NumArcs(); a++ {
		if g.Tail(Arc(a)) != g2.Tail(Arc(a)) || g.Head(Arc(a)) != g2.Head(Arc(a)) {
			t.Fatalf("arc %d endpoints changed", a)
		}
		if w[a] != w2[a] {
			t.Fatalf("arc %d weight changed: %d -> %d", a, w[a], w2[a])
		}
	}
	if !g2.HasCoordinates() {
		t.Fatal("coordinates lost in round trip")
	}
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		if g.X(v) != g2.X(v) || g.Y(v) != g2.Y(v) {
			t.Fatalf("coordinates of %d changed", v)
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	cases := []string{
		"a 0 1 5\n",              // no problem line
		"p sp 2 1\nz nonsense\n", // unknown record
		"p sp 2 2\na 0 1 5\n",    // arc count mismatch
		"p sp 2 1\nv 9 0 0\n",    // vertex id out of range
		"p sp x y\n",             // malformed problem line
		"p sp 2 1\na 0 one 5\n",  // malformed arc
		"p sp 2 1\nv 0 a b\n",    // malformed vertex
	}
	for _, c := range cases {
		if _, _, err := ReadFrom(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

func TestReadFromIgnoresComments(t *testing.T) {
	in := "c generated\np sp 2 1\nc mid comment\na 0 1 7\n"
	g, w, err := ReadFrom(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 1 || w[0] != 7 {
		t.Fatalf("parsed %d arcs, w=%v", g.NumArcs(), w)
	}
}
