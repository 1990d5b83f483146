package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// transcript is what the silos learn from Fed-SAC: every opened bit, in
// order, and the width of every protocol instance — the batch shapes are part
// of what a silo observes.
type transcript struct {
	bits   []bool
	widths []int
}

// record returns a view of f on which every Fed-SAC instance, from any
// package and on any fork, runs on the engine and is appended to tr.
func record(f *fed.Federation, tr *transcript) *fed.Federation {
	return f.WithDecide(func(inner fed.Decide) fed.Decide {
		return func(diffs [][]int64) ([]bool, error) {
			bits, err := inner(diffs)
			tr.bits = append(tr.bits, bits...)
			tr.widths = append(tr.widths, len(diffs))
			return bits, err
		}
	})
}

// replay returns a view of f that is the §VII simulator: it answers every
// instance from rec's bits, in order, without reading its inputs, and logs
// what it is asked into got.
func replay(f *fed.Federation, rec, got *transcript) *fed.Federation {
	return f.WithDecide(func(fed.Decide) fed.Decide {
		return func(diffs [][]int64) ([]bool, error) {
			pos := len(got.bits)
			if pos+len(diffs) > len(rec.bits) {
				return nil, fmt.Errorf("simulator ran out of recorded bits at %d", pos)
			}
			got.bits = append(got.bits, rec.bits[pos:pos+len(diffs)]...)
			got.widths = append(got.widths, len(diffs))
			return got.bits[pos:], nil
		}
	})
}

// sameTranscript fails unless the simulator consumed every recorded bit in
// the recorded instance widths.
func sameTranscript(t *testing.T, what string, rec, got *transcript) {
	t.Helper()
	if len(got.bits) != len(rec.bits) {
		t.Fatalf("%s: simulator consumed %d of %d bits", what, len(got.bits), len(rec.bits))
	}
	if !reflect.DeepEqual(got.widths, rec.widths) {
		t.Fatalf("%s: simulator's instance widths diverge from the real run's", what)
	}
}

// TestSimulationArgument makes §VII executable: the transcript a silo sees
// is fully determined by the public topology and the comparison bits. Each
// case runs on the real federation through a recording view, then re-runs
// the identical logic on a federation of the same topology whose private
// weights are unrelated garbage, answering every comparison from the
// recorded bits at the fed.SAC seam. The simulated execution must issue the
// same instances, of the same widths, and produce the same output — i.e. a
// simulator without any weight data reproduces everything observable, so the
// operation leaks nothing beyond the comparison bits. The batch shapes are
// part of the claim: under BatchedMPC the lockstep steps decide which
// comparisons share an instance, and in ch the sweep schedule does.
//
// The cases: flat Fed-SSSP and Fed-SPSP over the heap, the TM-tree and the
// batched TM-tree, and a star route whose two sides stop in one step, each
// pop replay cut after its first comparison; then the production route
// (RouteOptions: TM-tree, Fed-AMPS, BatchedMPC, PruneStaged) on the flat
// network, and a full customization of the shortcut index followed by the
// production route on it, replayed in order from one transcript.
func TestSimulationArgument(t *testing.T) {
	g, w0 := graph.GenerateGrid(9, 9, 101)
	realSets := traffic.SiloWeights(w0, 3, traffic.Moderate, 102)
	realFed, err := fed.New(g, w0, realSets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}

	// Garbage federation: same public topology and W0, silo weights replaced
	// by unrelated random values (what the simulator "knows" — nothing).
	rng := rand.New(rand.NewPCG(9, 9))
	garbageSets := make([]graph.Weights, 3)
	for p := range garbageSets {
		garbageSets[p] = make(graph.Weights, g.NumArcs())
		for a := range garbageSets[p] {
			garbageSets[p][a] = 1 + rng.Int64N(1_000_000)
		}
	}
	simFed, err := fed.New(g, w0, garbageSets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	starReal := starFederation(t, 16, nil)
	starSim := starFederation(t, 16, func(int, graph.Arc) int64 { return 1 + rng.Int64N(1_000_000) })
	engine := func(f *fed.Federation, opt Options) *Engine {
		t.Helper()
		e, err := NewEngine(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	samePath := func(what string, sim, real []graph.Vertex) {
		t.Helper()
		if !reflect.DeepEqual(sim, real) {
			t.Fatalf("%s: simulated path %v, real %v — execution depends on more than comparison bits", what, sim, real)
		}
	}

	for _, opt := range []Options{{Queue: pq.KindHeap}, {Queue: pq.KindTMTree}, {Queue: pq.KindTMTree, BatchedMPC: true}} {
		queue := fmt.Sprintf("%s/batched=%v", opt.Queue, opt.BatchedMPC)
		// --- Fed-SSSP (Alg. 1) ---
		var rec, got transcript
		realRes, _, err := engine(record(realFed, &rec), opt).SSSP(7, 20)
		if err != nil {
			t.Fatal(err)
		}
		simRes, _, err := engine(replay(simFed, &rec, &got), opt).SSSP(7, 20)
		if err != nil {
			t.Fatal(err)
		}
		sameTranscript(t, queue+" SSSP", &rec, &got)
		if len(simRes) != len(realRes) {
			t.Fatalf("queue %s: simulator found %d results, real %d", queue, len(simRes), len(realRes))
		}
		for i := range realRes {
			if simRes[i].Target != realRes[i].Target {
				t.Fatalf("queue %s: result %d target %d != %d", queue, i, simRes[i].Target, realRes[i].Target)
			}
			samePath(fmt.Sprintf("queue %s SSSP result %d", queue, i), simRes[i].Path, realRes[i].Path)
		}

		// --- Fed-SPSP (bidirectional, no estimator: Alg. 1's setting) ---
		rec, got = transcript{}, transcript{}
		realPath, _, err := engine(record(realFed, &rec), opt).SPSP(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		simPath, _, err := engine(replay(simFed, &rec, &got), opt).SPSP(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		sameTranscript(t, queue+" SPSP", &rec, &got)
		if opt.BatchedMPC && len(rec.widths) >= len(rec.bits) {
			t.Fatalf("queue %s: %d instances for %d comparisons — nothing was coalesced", queue, len(rec.widths), len(rec.bits))
		}
		if !realPath.Found || simPath.Found != realPath.Found {
			t.Fatalf("queue %s: SPSP found real=%v sim=%v", queue, realPath.Found, simPath.Found)
		}
		samePath("queue "+queue+" SPSP", simPath.Path, realPath.Path)

		// --- A cut replay: both sides of the star route stop in one step ---
		rec, got = transcript{}, transcript{}
		starPath, _, err := engine(record(starReal, &rec), opt).SPSP(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		simPath, _, err = engine(replay(starSim, &rec, &got), opt).SPSP(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameTranscript(t, queue+" star SPSP", &rec, &got)
		if cut := 36; len(rec.bits) != cut {
			t.Fatalf("queue %s: star route made %d comparisons, want %d (each stopped replay cut after its first)", queue, len(rec.bits), cut)
		}
		samePath("queue "+queue+" star SPSP", simPath.Path, starPath.Path)
	}

	// --- The production route without an index: pruned pushes ---
	var rec, got transcript
	realPath, st, err := engine(record(realFed, &rec), RouteOptions(nil)).SPSP(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	if st.PruneCompares == 0 {
		t.Fatal("the flat production route made no prune comparison")
	}
	simPath, _, err := engine(replay(simFed, &rec, &got), RouteOptions(nil)).SPSP(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	sameTranscript(t, "flat production route", &rec, &got)
	if !realPath.Found || !simPath.Found {
		t.Fatalf("flat production route found real=%v sim=%v", realPath.Found, simPath.Found)
	}
	samePath("flat production route", simPath.Path, realPath.Path)

	// --- Customization, then the production route on its index ---
	sk, err := ch.BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	rec, got = transcript{}, transcript{}
	realView := record(realFed, &rec)
	realIdx, err := ch.Customize(realView, sk)
	if err != nil {
		t.Fatal(err)
	}
	customized := len(rec.widths)
	realPath, st, err = engine(realView, RouteOptions(realIdx)).SPSP(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	if st.PruneCompares == 0 {
		t.Fatal("the indexed production route made no prune comparison")
	}
	simView := replay(simFed, &rec, &got)
	simIdx, err := ch.Customize(simView, sk)
	if err != nil {
		t.Fatal(err)
	}
	if customized == 0 || len(got.widths) != customized {
		t.Fatalf("customization: %d instances recorded, %d replayed", customized, len(got.widths))
	}
	simPath, _, err = engine(simView, RouteOptions(simIdx)).SPSP(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	sameTranscript(t, "customize+route", &rec, &got)
	if len(rec.widths) == customized {
		t.Fatal("the indexed route ran no Fed-SAC instance")
	}
	for a := int32(g.NumArcs()); a < int32(realIdx.NumArcs()); a++ {
		if !reflect.DeepEqual(simIdx.UnpackArcs(a), realIdx.UnpackArcs(a)) {
			t.Fatalf("shortcut %d: the simulated customization elected different winners", a)
		}
	}
	if !realPath.Found || !simPath.Found {
		t.Fatalf("indexed route found real=%v sim=%v", realPath.Found, simPath.Found)
	}
	samePath("indexed route", simPath.Path, realPath.Path)
	t.Logf("customize: %d instances; route: %d instances; %d bits in all",
		customized, len(rec.widths)-customized, len(rec.bits))
}
