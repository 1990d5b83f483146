package fedroad

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// stateFederation builds a small federation with an index and a few traffic
// updates applied, so a snapshot exercises every section (non-trivial
// version, mutated weights, index with update history).
func stateFederation(t *testing.T, seed uint64) *Federation {
	t.Helper()
	g, w0 := GenerateRoadNetwork(120, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0xdead))
	var ups []TrafficUpdate
	for i := 0; i < 15; i++ {
		ups = append(ups, TrafficUpdate{
			Silo:     rng.IntN(3),
			Arc:      Arc(rng.IntN(g.NumArcs())),
			TravelMs: int64(1 + rng.IntN(200000)),
		})
	}
	if _, err := f.ApplyTraffic(ups); err != nil {
		t.Fatal(err)
	}
	return f
}

// freshTwin builds a federation over the SAME topology but with untouched
// weights — the restore target, standing in for a restarted process.
func freshTwin(t *testing.T, seed uint64) *Federation {
	t.Helper()
	g, w0 := GenerateRoadNetwork(120, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStateRoundTrip(t *testing.T) {
	src := stateFederation(t, 31)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	dst := freshTwin(t, 31)
	if dst.HasIndex() {
		t.Fatal("twin unexpectedly has an index")
	}
	restoredIndex, err := dst.RestoreState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restoredIndex || !dst.HasIndex() {
		t.Fatal("index not restored from snapshot")
	}
	if got, want := dst.TrafficVersion(), src.TrafficVersion(); got != want {
		t.Fatalf("traffic version %d after restore, want %d", got, want)
	}

	// The restored federation must answer every query exactly like the
	// original — queries agree with plaintext Dijkstra on the restored joint
	// weights, with NO index rebuild in between.
	g := src.Graph()
	joint := make(Weights, g.NumArcs())
	for p := 0; p < src.Silos(); p++ {
		for a := 0; a < g.NumArcs(); a++ {
			joint[a] += src.inner.Silo(p).Weight(Arc(a))
		}
	}
	rng := rand.New(rand.NewPCG(32, 32))
	for trial := 0; trial < 20; trial++ {
		s := Vertex(rng.IntN(g.NumVertices()))
		d := Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, d)
		route, _, err := dst.ShortestPath(s, d)
		if err != nil {
			t.Fatalf("restored ShortestPath(%d,%d): %v", s, d, err)
		}
		if want >= graph.InfCost {
			if route.Found {
				t.Fatalf("restored found a route %d→%d, oracle says unreachable", s, d)
			}
			continue
		}
		if got := JointCost(route); got != want {
			t.Fatalf("restored ShortestPath(%d,%d) joint cost %d, oracle %d", s, d, got, want)
		}
	}

	// And its index must keep supporting dynamic updates.
	if _, err := dst.ApplyTraffic([]TrafficUpdate{{Silo: 1, Arc: 3, TravelMs: 123456}}); err != nil {
		t.Fatalf("ApplyTraffic on restored federation: %v", err)
	}
}

func TestStateRoundTripWithoutIndex(t *testing.T) {
	g, w0 := GenerateRoadNetwork(60, 41)
	silos := SimulateCongestion(w0, 2, Moderate, 42)
	src, err := New(g, w0, silos)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 5, TravelMs: 99999}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := New(g, w0, SimulateCongestion(w0, 2, Moderate, 42))
	if err != nil {
		t.Fatal(err)
	}
	restoredIndex, err := dst.RestoreState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restoredIndex || dst.HasIndex() {
		t.Fatal("index restored from an index-free snapshot")
	}
	if dst.inner.Silo(0).Weight(5) != 99999 {
		t.Fatal("silo weight not restored")
	}
	if dst.TrafficVersion() != 1 {
		t.Fatalf("traffic version %d, want 1", dst.TrafficVersion())
	}
}

func TestRestoreRejectsWrongGraph(t *testing.T) {
	src := stateFederation(t, 51)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// A different seed gives a different topology: the fingerprint must
	// reject the snapshot before any state is touched.
	other := freshTwin(t, 52)
	verBefore := other.TrafficVersion()
	if _, err := other.RestoreState(&buf); err == nil {
		t.Fatal("snapshot restored into a different graph")
	}
	if other.TrafficVersion() != verBefore || other.HasIndex() {
		t.Fatal("failed restore mutated the federation")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	src := stateFederation(t, 61)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{0, 4, 11, 20, len(good) / 2, len(good) - 1} {
		dst := freshTwin(t, 61)
		if _, err := dst.RestoreState(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	dst := freshTwin(t, 61)
	if _, err := dst.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Zero out a weight (offset: magic+version+fp+ver+P+m = 4+4+8+8+4+4 = 32).
	bad = append([]byte{}, good...)
	for i := 32; i < 40; i++ {
		bad[i] = 0
	}
	dst = freshTwin(t, 61)
	if _, err := dst.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("non-positive silo weight accepted")
	}
}
