package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// --- ReadFrom base handling and validation -------------------------------

func TestReadFromOneBased(t *testing.T) {
	// 1-based input: ids 1..3 with n=3; id n present marks the base.
	in := "p sp 3 3\na 1 2 10\na 2 3 20\na 3 1 30\n"
	g, w, err := ReadFrom(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumArcs() != 3 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
	a := g.FindArc(0, 1)
	if a == NoArc || w[a] != 10 {
		t.Fatalf("arc 0->1 missing or wrong weight")
	}
	if g.FindArc(2, 0) == NoArc {
		t.Fatalf("arc 2->0 (1-based 3->1) missing")
	}
}

func TestReadFromZeroBasedRoundTrip(t *testing.T) {
	g0, w0 := GenerateRandomDirected(30, 120, 1000, 7)
	var buf bytes.Buffer
	if err := WriteTo(&buf, g0, w0); err != nil {
		t.Fatal(err)
	}
	g1, w1, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g0, w0, g1, w1)
}

func TestReadFromMixedBase(t *testing.T) {
	in := "p sp 3 2\na 0 1 5\na 2 3 5\n"
	if _, _, err := ReadFrom(strings.NewReader(in)); err == nil {
		t.Fatal("accepted input referencing both vertex 0 and vertex n")
	}
}

func TestReadFromKindValidation(t *testing.T) {
	if _, _, err := ReadFrom(strings.NewReader("p max 2 1\na 0 1 5\n")); err == nil {
		t.Fatal("accepted problem kind other than sp")
	}
}

// TestReadFromAllocatesByInputNotHeader: a problem line is no licence to
// allocate. A 19-byte header declaring 2^26 arcs, alone or followed by one
// arc, fails having allocated what its bytes warrant, not the gigabyte of
// staging the header claims.
func TestReadFromAllocatesByInputNotHeader(t *testing.T) {
	for _, in := range []string{"p sp 1000 67108864\n", "p sp 1000 67108864\na 0 1 5\n"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadFrom(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q parsed", in)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("rejecting %q allocated %d bytes", in, alloc)
		}
	}
}

// --- CSRBuilder vs the sort-based Builder --------------------------------

func TestCSRBuilderMatchesBuilder(t *testing.T) {
	gRef, wRef := GenerateRandomDirected(60, 400, 1000, 99)
	csr := NewCSRBuilder(gRef.NumVertices())
	for a := 0; a < gRef.NumArcs(); a++ {
		csr.Count(gRef.Tail(Arc(a)))
	}
	csr.FinishCount()
	for a := 0; a < gRef.NumArcs(); a++ {
		csr.Place(gRef.Tail(Arc(a)), gRef.Head(Arc(a)), wRef[a])
	}
	g, w, err := csr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, gRef, wRef, g, w)
}

// --- DIMACS fixture import ------------------------------------------------

func openFixture(t *testing.T, name string) func() (io.ReadCloser, error) {
	t.Helper()
	path := filepath.Join("testdata", name)
	return func() (io.ReadCloser, error) { return os.Open(path) }
}

func TestImportDIMACSFixture(t *testing.T) {
	co, err := os.Open(filepath.Join("testdata", "tiny.co"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g, w, stats, err := ImportDIMACS(openFixture(t, "tiny.gr"), co, ImportOptions{ClampMinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RawVertices != 6 || stats.RawArcs != 9 {
		t.Fatalf("raw counts: %+v", stats)
	}
	if !stats.OneBased {
		t.Fatalf("fixture should import 1-based")
	}
	if stats.Clamped != 1 {
		t.Fatalf("expected 1 clamped weight, got %d", stats.Clamped)
	}
	if stats.Components != 3 {
		t.Fatalf("expected 3 SCCs, got %d", stats.Components)
	}
	// Largest SCC is 1-based {1,2,3,4} with the 7 arcs among them.
	if g.NumVertices() != 4 || g.NumArcs() != 7 {
		t.Fatalf("after SCC extraction: n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
	if !g.StronglyConnected() {
		t.Fatal("extracted component is not strongly connected")
	}
	// The zero-weight arc 2->3 (0-based 1->2) must be clamped to 1.
	a := g.FindArc(1, 2)
	if a == NoArc || w[a] != 1 {
		t.Fatalf("clamped arc: idx=%d w=%v", a, w)
	}
	if b := g.FindArc(0, 1); b == NoArc || w[b] != 3 {
		t.Fatalf("arc 1->2 weight: %v", w)
	}
	// Coordinates must survive the SCC remap: vertex 0 is 1-based vertex 1.
	if !g.HasCoordinates() {
		t.Fatal("coordinates lost")
	}
	if g.X(0) != -122419400 || g.Y(0) != 37774900 {
		t.Fatalf("vertex 0 coordinates (%g,%g)", g.X(0), g.Y(0))
	}
	if g.X(3) != -122416500 || g.Y(3) != 37775800 {
		t.Fatalf("vertex 3 coordinates (%g,%g)", g.X(3), g.Y(3))
	}
}

func TestImportDIMACSKeepAll(t *testing.T) {
	g, _, stats, err := ImportDIMACS(openFixture(t, "tiny.gr"), nil, ImportOptions{KeepAll: true, ClampMinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumArcs() != 9 {
		t.Fatalf("KeepAll: n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
	if stats.Components != 0 {
		t.Fatalf("KeepAll should skip SCC labeling, got %d components", stats.Components)
	}
}

func TestImportDIMACSCaps(t *testing.T) {
	// Cap to the first 4 vertices: arcs touching 5 or 6 are dropped before
	// SCC extraction, leaving exactly the 4-vertex component.
	g, _, stats, err := ImportDIMACS(openFixture(t, "tiny.gr"), nil, ImportOptions{MaxVertices: 4, ClampMinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeptVertices != 4 || stats.KeptArcs != 7 {
		t.Fatalf("caps: %+v", stats)
	}
	if g.NumVertices() != 4 || g.NumArcs() != 7 {
		t.Fatalf("capped graph: n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
	// Arc cap: keep only the first 3 arcs in file order.
	_, _, stats, err = ImportDIMACS(openFixture(t, "tiny.gr"), nil, ImportOptions{MaxArcs: 3, KeepAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeptArcs != 3 {
		t.Fatalf("arc cap: %+v", stats)
	}
}

// --- SCC primitives -------------------------------------------------------

func TestLargestSCC(t *testing.T) {
	g, w := GenerateGrid(5, 5, 3)
	keep := LargestSCC(g)
	if len(keep) != g.NumVertices() {
		t.Fatalf("grid is strongly connected, SCC kept %d of %d", len(keep), g.NumVertices())
	}
	sub, wSub, remap := InducedSubgraph(g, w, keep)
	assertSameGraph(t, g, w, sub, wSub)
	for v, nv := range remap {
		if nv != Vertex(v) {
			t.Fatalf("identity remap expected, got %d->%d", v, nv)
		}
	}
}

func TestLargestSCCEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	if keep := LargestSCC(g); keep != nil {
		t.Fatalf("empty graph: %v", keep)
	}
}

// --- Binary snapshot codec ------------------------------------------------

func TestBinaryRoundTrip(t *testing.T) {
	g0, w0 := GenerateRoadLike(200, 11)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g0, w0); err != nil {
		t.Fatal(err)
	}
	if !IsBinarySnapshot(buf.Bytes()) {
		t.Fatal("snapshot not recognized by magic sniff")
	}
	g1, w1, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g0, w0, g1, w1)
	if g0.HasCoordinates() != g1.HasCoordinates() {
		t.Fatal("coordinate flag lost")
	}
	if g1.HasCoordinates() {
		for v := 0; v < g1.NumVertices(); v++ {
			if g0.X(Vertex(v)) != g1.X(Vertex(v)) || g0.Y(Vertex(v)) != g1.Y(Vertex(v)) {
				t.Fatalf("vertex %d coordinates differ", v)
			}
		}
	}
	// Semantics check: a shortest-path run agrees bit-for-bit.
	d0 := Dijkstra(g0, w0, 0).Dist
	d1 := Dijkstra(g1, w1, 0).Dist
	for v := range d0 {
		if d0[v] != d1[v] {
			t.Fatalf("distances diverge at %d", v)
		}
	}
}

func TestBinaryRoundTripNoWeightsNoCoords(t *testing.T) {
	g0, _ := GenerateRandomDirected(40, 160, 1000, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g0, nil); err != nil {
		t.Fatal(err)
	}
	g1, w1, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != nil {
		t.Fatal("weights materialized from a weightless snapshot")
	}
	if g1.HasCoordinates() {
		t.Fatal("coordinates materialized from a coordinate-free snapshot")
	}
	assertSameGraph(t, g0, nil, g1, nil)
}

func TestBinaryCorruptInputs(t *testing.T) {
	g, w := GenerateRandomDirected(20, 80, 1000, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, w); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted corrupt snapshot", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("unknown flags", func(b []byte) []byte { b[12] |= 0x80; return b })
	corrupt("implausible n", func(b []byte) []byte {
		for i := 16; i < 24; i++ {
			b[i] = 0xff
		}
		return b
	})
	corrupt("truncated header", func(b []byte) []byte { return b[:16] })
	corrupt("truncated offsets", func(b []byte) []byte { return b[:40] })
	corrupt("truncated body", func(b []byte) []byte { return b[:len(b)-8] })
	corrupt("head out of range", func(b []byte) []byte {
		// First dst entry sits after the header and the (n+1) offsets,
		// padded to 8 bytes.
		off := 32 + 4*(g.NumVertices()+1)
		off = (off + 7) &^ 7
		for i := 0; i < 4; i++ {
			b[off+i] = 0xff
		}
		return b
	})
	corrupt("non-monotone offsets", func(b []byte) []byte {
		// Swap off[1] up past off[2] by maxing it.
		b[36], b[37] = 0xff, 0x7f
		return b
	})
}

func TestLoadFileBothFormats(t *testing.T) {
	g0, w0 := GenerateRoadLike(100, 21)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.frgb")
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(fb, g0, w0); err != nil {
		t.Fatal(err)
	}
	fb.Close()

	txtPath := filepath.Join(dir, "g.txt")
	ft, err := os.Create(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(ft, g0, w0); err != nil {
		t.Fatal(err)
	}
	ft.Close()

	for _, path := range []string{binPath, txtPath} {
		g1, w1, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertSameGraph(t, g0, w0, g1, w1)
	}
}

// assertSameGraph compares structure, arc order, and weights.
func assertSameGraph(t *testing.T, g0 *Graph, w0 Weights, g1 *Graph, w1 Weights) {
	t.Helper()
	if g0.NumVertices() != g1.NumVertices() || g0.NumArcs() != g1.NumArcs() {
		t.Fatalf("shape differs: (%d,%d) vs (%d,%d)",
			g0.NumVertices(), g0.NumArcs(), g1.NumVertices(), g1.NumArcs())
	}
	for a := 0; a < g0.NumArcs(); a++ {
		if g0.Tail(Arc(a)) != g1.Tail(Arc(a)) || g0.Head(Arc(a)) != g1.Head(Arc(a)) {
			t.Fatalf("arc %d differs: %d->%d vs %d->%d", a,
				g0.Tail(Arc(a)), g0.Head(Arc(a)), g1.Tail(Arc(a)), g1.Head(Arc(a)))
		}
		if w0 != nil && w1 != nil && w0[a] != w1[a] {
			t.Fatalf("weight %d differs: %d vs %d", a, w0[a], w1[a])
		}
	}
}
