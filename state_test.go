package fedroad

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/scenario"
)

// stateFederation builds a small federation with an index and a few traffic
// updates applied, so a snapshot exercises every section (non-trivial
// version, mutated weights, index with update history).
func stateFederation(t *testing.T, seed uint64) *Federation {
	t.Helper()
	g, w0 := GenerateRoadNetwork(120, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Mode: ModeIdeal, Seed: seed})
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
	f, err := New(g, w0, silos, Config{Mode: ModeIdeal, Seed: seed})
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
			joint[a] += src.cur.Load().fed.Silo(p).Weight(Arc(a))
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
	if dst.cur.Load().fed.Silo(0).Weight(5) != 99999 {
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

func TestRestoreRejectsCorruption(t *testing.T) {
	src := stateFederation(t, 61)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Every section boundary: inside the header, after each header field,
	// after each silo's weights, after the kind byte, after the index
	// stream's header and after its ranks; then a byte short of the end.
	cuts := []int{0, 4, 8, 16, 24, 28, stateHeaderLen}
	at := stateHeaderLen
	for p := 0; p < src.Silos(); p++ {
		at += 8 * src.Graph().NumArcs()
		cuts = append(cuts, at)
	}
	at++
	cuts = append(cuts, at, at+20, at+20+4*src.Graph().NumVertices(), len(good)-1)
	var index bytes.Buffer
	if err := src.cur.Load().index.WriteIndex(&index); err != nil {
		t.Fatal(err)
	}
	if at+index.Len() != len(good) {
		t.Fatalf("snapshot is %d bytes, its sections add up to %d", len(good), at+index.Len())
	}
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
	checkRoutesOn(t, f, liveJoint(f), trials, seed)
}

// checkRoutesOn holds f's routes to plaintext Dijkstra on the joint weights.
func checkRoutesOn(t *testing.T, f *Federation, joint Weights, trials int, seed uint64) {
	t.Helper()
	g := f.Graph()
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

// heavySnapshot is the snapshot of a federation over g whose silos carry
// Heavy congestion, customized when indexed, and those silo weights' sums.
func heavySnapshot(t *testing.T, g *Graph, w0 Weights, indexed bool) ([]byte, Weights) {
	t.Helper()
	heavy := SimulateCongestion(w0, 3, Heavy, 12)
	src, err := New(g, w0, heavy, Config{Mode: ModeIdeal})
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := src.CustomizeIndex(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), graph.JointWeights(heavy)
}

// TestRestoreIndexlessSnapshotDropsIndex: an index-less snapshot restored
// into a federation whose customized index describes other weights replaces
// the whole version — the old index stops serving, and routes are exact on
// the restored weights.
func TestRestoreIndexlessSnapshotDropsIndex(t *testing.T) {
	g, w0 := GenerateRoadNetwork(300, 11)
	snap, joint := heavySnapshot(t, g, w0, false)
	f, err := New(g, w0, SimulateCongestion(w0, 3, Free, 12), Config{Mode: ModeIdeal})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	if restored, err := f.RestoreState(bytes.NewReader(snap)); err != nil || restored {
		t.Fatalf("restore: index %v, %v", restored, err)
	}
	if f.HasIndex() {
		t.Fatal("the index over the pre-restore weights still serves")
	}
	checkRoutesOn(t, f, joint, 100, 11)
}

// TestRestoreReplacesDerivationInFlight: a customization parked mid-protocol
// over the pre-restore weights, at the very traffic version the snapshot
// restores, must not publish its index over the restored weights. The restore
// waits for it and then replaces the whole version.
func TestRestoreReplacesDerivationInFlight(t *testing.T) {
	g, w0 := GenerateRoadNetwork(150, 11)
	snap, joint := heavySnapshot(t, g, w0, true)
	p := newParker()
	f, err := New(g, w0, SimulateCongestion(w0, 3, Free, 12), Config{Mode: ModeProtocol, Seed: 13, TransportWrap: p.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	derived := make(chan error, 1)
	p.park(t, func() {
		go func() { derived <- f.CustomizeIndex() }()
	})
	restored := make(chan error, 1)
	go func() {
		_, err := f.RestoreState(bytes.NewReader(snap))
		restored <- err
	}()
	// Give a restore that does not wait for the derivation time to finish.
	var restoreErr error
	select {
	case restoreErr = <-restored:
		restored <- restoreErr
	case <-time.After(time.Second):
	}
	close(p.release)
	if err := <-derived; err != nil {
		t.Fatal(err)
	}
	if err := <-restored; err != nil {
		t.Fatal(err)
	}
	if !f.HasIndex() || f.TrafficVersion() != 0 {
		t.Fatalf("after the restore: index %v, version %d", f.HasIndex(), f.TrafficVersion())
	}
	checkRoutesOn(t, f, joint, 60, 13)
}

// TestRoutesRaceRestore: routes race a writer that interleaves traffic
// batches with SaveState → RestoreState into the same federation. A restore
// republishes the version it saved, index included, so the history is
// unchanged and every route is exact at the version it echoes.
func TestRoutesRaceRestore(t *testing.T) {
	f, h := rebuildFederation(t, 200, 81)
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(84, 0))
	race(t, h, scenario.Row{
		Fronts: 3, Queries: 20,
		Front: sessionFront(t, f, randomPairs(f, 85)),
		Writer: func(i int) ([]scenario.Update, error) {
			if i%2 == 0 {
				return applyTraffic(f, scenario.Batch(rng, 3, f.Silos(), f.Graph().NumArcs(), 1, 120001))
			}
			var snap bytes.Buffer
			if err := f.SaveState(&snap); err != nil {
				return nil, err
			}
			if restored, err := f.RestoreState(&snap); err != nil || !restored {
				return nil, fmt.Errorf("restore: index %v, %v", restored, err)
			}
			return nil, nil
		},
	})
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
	if !bare.HasSkeleton() || !bare.IndexStats().Customized || bare.cur.Load().index.Skeleton() != bare.cur.Load().skel {
		t.Fatal("derived skeleton not installed with the customized index")
	}
	checkRoutesAgainstOracle(t, bare, 20, 72)

	warm := freshTwin(t, 71)
	if err := warm.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	sk := warm.cur.Load().skel
	plan := sk.Plan()
	if _, err := warm.RestoreState(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if warm.cur.Load().skel != sk || warm.cur.Load().index.Skeleton() != sk || warm.cur.Load().skel.Plan() != plan {
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

// TestRestoredCustomizedRouteCostsTheSame: a customized snapshot carries the
// winner of every pair group — those of the top groups, which no shortcut
// reads, included — so a route asked after RestoreState reads the same query
// lists and costs exactly the Fed-SACs it cost before SaveState. The first
// route's count is pinned: its search reads only winners (lists holding
// every member of a pair group cost this route 76 comparisons).
func TestRestoredCustomizedRouteCostsTheSame(t *testing.T) {
	src := customizedFederation(t, 71)
	rng := rand.New(rand.NewPCG(76, 76))
	var pairs [][2]Vertex
	for len(pairs) < 12 {
		if s, d := Vertex(rng.IntN(120)), Vertex(rng.IntN(120)); s != d {
			pairs = append(pairs, [2]Vertex{s, d})
		}
	}
	costs := func(f *Federation) []SACStats {
		var out []SACStats
		for _, p := range pairs {
			_, st, err := f.ShortestPath(p[0], p[1], QueryOptions{BatchedMPC: true})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st.SAC)
		}
		return out
	}
	before := costs(src)
	if got := before[0].Compares; got != 20 {
		t.Fatalf("route %d→%d: %d Fed-SACs, pinned 20", pairs[0][0], pairs[0][1], got)
	}
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	dst := freshTwin(t, 71)
	if _, err := dst.RestoreState(&buf); err != nil {
		t.Fatal(err)
	}
	for i, st := range costs(dst) {
		if st != before[i] {
			t.Fatalf("route %d→%d costs %+v after the restore, %+v before the save", pairs[i][0], pairs[i][1], st, before[i])
		}
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
	bad[len(bad)-1] = 0x80 // the last winner leaves its pair group

	bare := freshTwin(t, 81)
	if _, err := bare.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("a winner outside its pair group accepted")
	}
	if bare.HasSkeleton() || bare.HasIndex() || bare.TrafficVersion() != 0 {
		t.Fatal("failed restore installed state")
	}
	warm := freshTwin(t, 81)
	if err := warm.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	sk := warm.cur.Load().skel
	if _, err := warm.RestoreState(bytes.NewReader(bad)); err == nil {
		t.Fatal("a winner outside its pair group accepted")
	}
	if warm.cur.Load().skel != sk || warm.HasIndex() {
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

// TestRestoreRefusesVersion2: a version-2 snapshot stored a customized
// index's children per arc, not its pair-group winners; it is refused with
// ErrStateVersion and nothing is installed, not even a derived skeleton.
func TestRestoreRefusesVersion2(t *testing.T) {
	src := customizedFederation(t, 92)
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte{}, buf.Bytes()...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	dst := freshTwin(t, 92)
	if _, err := dst.RestoreState(bytes.NewReader(v2)); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("version-2 snapshot: %v, want ErrStateVersion", err)
	}
	if dst.HasIndex() || dst.HasSkeleton() || dst.TrafficVersion() != 0 {
		t.Fatal("refused snapshot mutated the federation")
	}
}

// TestRestoreRefusesVersion3: a version-3 snapshot stored every overlay arc
// and a weight shard per silo after the index; it is refused with
// ErrStateVersion and nothing is installed.
func TestRestoreRefusesVersion3(t *testing.T) {
	for _, src := range []*Federation{stateFederation(t, 93), customizedFederation(t, 93)} {
		var buf bytes.Buffer
		if err := src.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		v3 := append([]byte{}, buf.Bytes()...)
		binary.LittleEndian.PutUint32(v3[4:], 3)
		dst := freshTwin(t, 93)
		if _, err := dst.RestoreState(bytes.NewReader(v3)); !errors.Is(err, ErrStateVersion) {
			t.Fatalf("version-3 snapshot: %v, want ErrStateVersion", err)
		}
		if dst.HasIndex() || dst.HasSkeleton() || dst.TrafficVersion() != 0 {
			t.Fatal("refused snapshot mutated the federation")
		}
	}
}

// TestRestoreRunsNoFedSAC: the snapshot holds no index weight, and the
// restore derives every partial from the silo weights by local sums — it
// opens no comparison and forks no engine, for either index kind.
func TestRestoreRunsNoFedSAC(t *testing.T) {
	for _, src := range []*Federation{stateFederation(t, 95), customizedFederation(t, 95)} {
		var buf bytes.Buffer
		if err := src.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		dst := freshTwin(t, 95)
		engine, counters := dst.inner.Engine().Stats(), dst.Metrics().Snapshot()
		if restored, err := dst.RestoreState(&buf); err != nil || !restored {
			t.Fatalf("restore: %v, %v", restored, err)
		}
		if st := dst.inner.Engine().Stats(); st != engine {
			t.Fatalf("the restore moved the engine's stats: %+v → %+v", engine, st)
		}
		after := dst.Metrics().Snapshot()
		for _, name := range []string{"fedroad_mpc_compares_total", "fedroad_mpc_rounds_total", "fedroad_mpc_engine_forks_total"} {
			if after[name] != counters[name] {
				t.Fatalf("%s moved across the restore: %v → %v", name, counters[name], after[name])
			}
		}
		checkRoutesAgainstOracle(t, dst, 10, 96)
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
	// cust's index stream is a 20-byte header, the winner count, then one
	// winner per pair group, the last of which ends the snapshot.
	win0 := k + 1 + 24
	withWord := func(b []byte, at int, v uint32) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[at:], v)
		return out
	}
	for _, seed := range [][]byte{
		none, witness, cust,
		{},
		cust[:k],                               // ends before the kind byte
		cust[:k+1],                             // ends after it
		cust[:(k+len(cust))/2],                 // mid-index
		cust[:len(cust)-1],                     // a byte short
		withByte(witness, k, 0xfe),             // flipped kind
		withByte(cust, k, indexNone),           // index bytes trail
		withByte(witness, k, 2),                // a witness stream read as customized
		withByte(cust, k, 1),                   // a customized stream read as witness
		withByte(witness, 4, 1),                // version 1
		withByte(none, 0, 0),                   // magic
		withByte(cust, k+1+20, 0xff),           // winner count
		withByte(none, stateHeaderLen+7, 0x80), // first silo weight negative
		withByte(cust, 4, 2),                   // version 2: children per arc
		withByte(cust, len(cust)-1, 0xff),      // the last winner past the arcs
		withByte(cust, 4, 3),                   // version 3: arcs and weight shards
		cust[:win0+4],                          // the winner table cut after one winner
		withWord(cust, win0, binary.LittleEndian.Uint32(cust[len(cust)-4:])), // a winner outside its pair group
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
