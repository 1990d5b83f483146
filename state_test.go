package fedroad

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"sync"
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

// stateHeaderLen is the FRST prefix before the silo weights: magic, version,
// fingerprint, traffic version, silo count, arc count.
const stateHeaderLen = 4 + 4 + 8 + 8 + 4 + 4

// kindOffset is where the index-kind byte of f's snapshot sits.
func kindOffset(f *Federation) int {
	return stateHeaderLen + 8*f.Silos()*f.Graph().NumArcs()
}

// indexParts returns the lengths of f's index stream parts: the public part,
// then one shard per silo.
func indexParts(t *testing.T, f *Federation) []int {
	t.Helper()
	var b bytes.Buffer
	if err := f.index.WritePublic(&b); err != nil {
		t.Fatal(err)
	}
	parts := []int{b.Len()}
	for p := 0; p < f.Silos(); p++ {
		b.Reset()
		if err := f.index.WriteSiloWeights(p, &b); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b.Len())
	}
	return parts
}

func TestRestoreRejectsCorruption(t *testing.T) {
	src := stateFederation(t, 61)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Every section boundary: inside the header, after each header field,
	// after each silo's weights, after the kind byte, after the public part
	// and after every shard but the last; then a byte short of the end.
	cuts := []int{0, 4, 8, 16, 24, 28, stateHeaderLen}
	at := stateHeaderLen
	for p := 0; p < src.Silos(); p++ {
		at += 8 * src.Graph().NumArcs()
		cuts = append(cuts, at)
	}
	at++
	cuts = append(cuts, at)
	parts := indexParts(t, src)
	for _, n := range parts[:len(parts)-1] {
		at += n
		cuts = append(cuts, at)
	}
	if at += parts[len(parts)-1]; at != len(good) {
		t.Fatalf("snapshot is %d bytes, its sections add up to %d", len(good), at)
	}
	cuts = append(cuts, len(good)-1)
	for _, cut := range cuts {
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
	// Zero out a weight (the first one follows the header).
	bad = append([]byte{}, good...)
	for i := stateHeaderLen; i < stateHeaderLen+8; i++ {
		bad[i] = 0
	}
	dst = freshTwin(t, 61)
	if _, err := dst.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("non-positive silo weight accepted")
	}
	// The kind byte of a witness snapshot: flipped, or naming no index (the
	// index bytes trail) or a customized one (no skeleton mirrors it).
	k := kindOffset(src)
	for _, kind := range []byte{good[k] ^ 0xff, 0, 2, 3} {
		bad = append([]byte{}, good...)
		bad[k] = kind
		dst = freshTwin(t, 61)
		if _, err := dst.RestoreState(bytes.NewReader(bad)); err == nil {
			t.Fatalf("kind byte %d accepted for a witness index", kind)
		}
		if dst.HasIndex() || dst.HasSkeleton() || dst.TrafficVersion() != 0 {
			t.Fatalf("kind byte %d: failed restore mutated the federation", kind)
		}
	}
}

// customizedFederation is stateFederation with a customized index: a
// skeleton, a customization, then traffic updated in place.
func customizedFederation(t *testing.T, seed uint64) *Federation {
	t.Helper()
	f := freshTwin(t, seed)
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 7, TravelMs: 321000}, {Silo: 2, Arc: 11, TravelMs: 17}}); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkRoutesAgainstOracle holds f's routes to plaintext Dijkstra on f's
// current joint weights.
func checkRoutesAgainstOracle(t *testing.T, f *Federation, trials int, seed uint64) {
	t.Helper()
	g := f.Graph()
	joint := make(Weights, g.NumArcs())
	for p := 0; p < f.Silos(); p++ {
		for a, w := range f.inner.Silo(p).Weights() {
			joint[a] += w
		}
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	for trial := 0; trial < trials; trial++ {
		s, d := Vertex(rng.IntN(g.NumVertices())), Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, d)
		route, _, err := f.ShortestPath(s, d)
		if err != nil {
			t.Fatalf("ShortestPath(%d,%d): %v", s, d, err)
		}
		if got := JointCost(route); route.Found != (want < graph.InfCost) || (route.Found && got != want) {
			t.Fatalf("ShortestPath(%d,%d) joint cost %d (found %v), oracle %d", s, d, got, route.Found, want)
		}
	}
}

// TestRestoreCustomizedSnapshot: a customized snapshot carries no skeleton.
// Restored into a federation without one, the skeleton is derived and
// installed with the index; restored into one that has a skeleton, the index
// attaches to it and its customization plan survives. Either way in-place
// updates and re-customization keep working, and routes are exact.
func TestRestoreCustomizedSnapshot(t *testing.T) {
	src := customizedFederation(t, 71)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	if snap[kindOffset(src)] != indexCustomized {
		t.Fatalf("kind byte %d for a customized index", snap[kindOffset(src)])
	}

	bare := freshTwin(t, 71)
	if restored, err := bare.RestoreState(bytes.NewReader(snap)); err != nil || !restored {
		t.Fatalf("restore into a federation without a skeleton: %v, %v", restored, err)
	}
	if !bare.HasSkeleton() || !bare.IndexStats().Customized || bare.index.Skeleton() != bare.skel {
		t.Fatal("derived skeleton not installed with the customized index")
	}
	checkRoutesAgainstOracle(t, bare, 20, 72)

	warm := freshTwin(t, 71)
	if err := warm.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	sk := warm.skel
	plan := sk.Plan()
	if _, err := warm.RestoreState(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if warm.skel != sk || warm.index.Skeleton() != sk || warm.skel.Plan() != plan {
		t.Fatal("restore replaced the federation's skeleton (and its plan) instead of reusing it")
	}
	checkRoutesAgainstOracle(t, warm, 20, 73)

	for _, f := range []*Federation{bare, warm} {
		if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 1, Arc: 3, TravelMs: 123456}}); err != nil {
			t.Fatal(err)
		}
		checkRoutesAgainstOracle(t, f, 10, 74)
		if err := f.CustomizeIndex(); err != nil {
			t.Fatal(err)
		}
		checkRoutesAgainstOracle(t, f, 10, 75)
	}
}

// TestRestoreFailureKeepsSkeletonState: a customized snapshot that fails
// after its skeleton was derived leaves the federation without one, and a
// federation that had one keeps exactly it.
func TestRestoreFailureKeepsSkeletonState(t *testing.T) {
	src := customizedFederation(t, 81)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, buf.Bytes()...)
	bad[len(bad)-1] = 0x80 // the last weight of the last shard goes negative

	bare := freshTwin(t, 81)
	if _, err := bare.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("negative shard weight accepted")
	}
	if bare.HasSkeleton() || bare.HasIndex() || bare.TrafficVersion() != 0 {
		t.Fatal("failed restore installed state")
	}
	warm := freshTwin(t, 81)
	if err := warm.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	sk := warm.skel
	if _, err := warm.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("negative shard weight accepted")
	}
	if warm.skel != sk || warm.HasIndex() {
		t.Fatal("failed restore touched the federation's skeleton or index")
	}
}

// TestRestoreRefusesVersion1: a snapshot of the FRIX-bundle era is refused
// with ErrStateVersion, before anything is read past the version.
func TestRestoreRefusesVersion1(t *testing.T) {
	src := stateFederation(t, 91)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{}, buf.Bytes()...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	dst := freshTwin(t, 91)
	if _, err := dst.RestoreState(bytes.NewReader(v1)); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("version-1 snapshot: %v, want ErrStateVersion", err)
	}
	if dst.HasIndex() || dst.TrafficVersion() != 0 {
		t.Fatal("refused snapshot mutated the federation")
	}
}

// fuzzStates are the three kinds of snapshot of one small network — no
// index, a witness index, a customized index — shared by every fuzz run.
var fuzzStates = sync.OnceValues(func() ([][]byte, error) {
	var out [][]byte
	for _, kind := range []byte{indexNone, indexWitness, indexCustomized} {
		f, err := fuzzTarget()
		if err != nil {
			return nil, err
		}
		switch kind {
		case indexWitness:
			err = f.BuildIndex()
		case indexCustomized:
			err = f.CustomizeIndex()
		}
		if err == nil {
			_, err = f.ApplyTraffic([]TrafficUpdate{{Silo: 1, Arc: 4, TravelMs: 250000}})
		}
		var buf bytes.Buffer
		if err == nil {
			err = f.SaveState(&buf)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
})

// fuzzTarget is a fresh federation over FuzzRestoreState's network.
func fuzzTarget() (*Federation, error) {
	g, w0 := GenerateRoadNetwork(48, 101)
	return New(g, w0, SimulateCongestion(w0, 2, Moderate, 102))
}

// FuzzRestoreState feeds mutated FRST snapshots — the one persisted form of
// a federation — into RestoreState on a fresh federation. Either the restore
// fails and the federation is exactly as it was (traffic version, index,
// skeleton, routes), or it succeeds and every route equals plaintext
// Dijkstra on the restored weights. Never a panic, a hang or a wrong route.
func FuzzRestoreState(f *testing.F) {
	states, err := fuzzStates()
	if err != nil {
		f.Fatal(err)
	}
	none, witness, cust := states[0], states[1], states[2]
	withByte := func(b []byte, at int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = v
		return out
	}
	k := len(none) - 1 // the kind byte: the last byte of an index-free snapshot
	for _, seed := range [][]byte{
		none, witness, cust,
		{},
		cust[:k],                                // ends before the kind byte
		cust[:k+1],                              // ends after it
		cust[:(k+len(cust))/2],                  // mid-index
		cust[:len(cust)-1],                      // a byte short
		withByte(witness, k, 0xfe),              // flipped kind
		withByte(cust, k, indexNone),            // index bytes trail
		withByte(witness, k, 2),                 // no skeleton mirrors a witness index
		withByte(cust, k, 1),                    // a customized overlay read as witness
		withByte(witness, 4, 1),                 // version 1
		withByte(none, 0, 0),                    // magic
		withByte(cust, k+1+20, 0xff),            // first rank
		withByte(witness, len(witness)-1, 0x80), // last weight negative
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		dst, err := fuzzTarget()
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if _, err := dst.RestoreState(bytes.NewReader(snap)); err != nil {
			if dst.TrafficVersion() != 0 || dst.HasIndex() || dst.HasSkeleton() {
				t.Fatalf("failed restore (%v) mutated the federation", err)
			}
		}
		checkRoutesAgainstOracle(t, dst, 4, uint64(len(snap)))
	})
}
