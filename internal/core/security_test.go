package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// recordingCmp wraps the real Fed-SAC and records every comparison outcome
// and the width k of every protocol instance — the batch shapes are part of
// what a silo observes.
type recordingCmp struct {
	sac    *fed.SAC
	bits   []bool
	widths []int
}

func (r *recordingCmp) Less(a, b fed.Partial) bool {
	v := r.sac.Less(a, b)
	r.bits = append(r.bits, v)
	r.widths = append(r.widths, 1)
	return v
}

func (r *recordingCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	vs := r.sac.LessBatch(pairs)
	r.bits = append(r.bits, vs...)
	r.widths = append(r.widths, len(pairs))
	return vs
}

func (r *recordingCmp) Err() error { return r.sac.Err() }

// replayCmp is the §VII simulator: it answers comparisons purely from a
// recorded bit sequence, never looking at the partial-cost inputs.
type replayCmp struct {
	t      *testing.T
	bits   []bool
	pos    int
	widths []int
}

func (r *replayCmp) next() bool {
	if r.pos >= len(r.bits) {
		r.t.Fatalf("simulator ran out of recorded comparison bits at %d", r.pos)
	}
	v := r.bits[r.pos]
	r.pos++
	return v
}

func (r *replayCmp) Less(a, b fed.Partial) bool {
	r.widths = append(r.widths, 1)
	return r.next()
}

func (r *replayCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	r.widths = append(r.widths, len(pairs))
	out := make([]bool, len(pairs))
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func (r *replayCmp) Err() error { return nil }

// TestSimulationArgument makes §VII executable: the transcript a silo sees
// during Fed-SSSP/Fed-SPSP is fully determined by the public topology and
// the comparison bits. We record the comparison outcomes of a query on the
// real federation, then re-run the identical search logic on a federation
// whose private weights have been replaced by unrelated garbage, answering
// every comparison from the recorded bits. The simulated execution settles
// the same vertices in the same order and returns the same path — i.e., a
// simulator without any weight data reproduces everything observable, so
// the search leaks nothing beyond the comparison bits. Under BatchedMPC the
// lockstep steps decide which comparisons share a protocol instance; the
// simulator must issue the identical sequence of instance widths, i.e. the
// batch shapes too are a function of topology and bits alone.
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

	for _, opt := range []Options{{Queue: pq.KindHeap}, {Queue: pq.KindTMTree}, {Queue: pq.KindTMTree, BatchedMPC: true}} {
		queue := fmt.Sprintf("%s/batched=%v", opt.Queue, opt.BatchedMPC)
		// --- Fed-SSSP (Alg. 1) ---
		rec := &recordingCmp{}
		realEng, err := NewEngine(realFed, opt)
		if err != nil {
			t.Fatal(err)
		}
		realEng.cmpHook = func(s *fed.SAC) comparator { rec.sac = s; return rec }
		realRes, _, err := realEng.SSSP(7, 20)
		if err != nil {
			t.Fatal(err)
		}

		rep := &replayCmp{t: t, bits: rec.bits}
		simEng, err := NewEngine(simFed, opt)
		if err != nil {
			t.Fatal(err)
		}
		simEng.cmpHook = func(*fed.SAC) comparator { return rep }
		simRes, _, err := simEng.SSSP(7, 20)
		if err != nil {
			t.Fatal(err)
		}
		if rep.pos != len(rep.bits) {
			t.Fatalf("queue %s: simulator consumed %d of %d bits", queue, rep.pos, len(rep.bits))
		}
		if !reflect.DeepEqual(rep.widths, rec.widths) {
			t.Fatalf("queue %s: SSSP simulator's instance widths diverge from the real run's", queue)
		}
		if len(simRes) != len(realRes) {
			t.Fatalf("queue %s: simulator found %d results, real %d", queue, len(simRes), len(realRes))
		}
		for i := range realRes {
			if simRes[i].Target != realRes[i].Target {
				t.Fatalf("queue %s: result %d target %d != %d — execution depends on more than comparison bits",
					queue, i, simRes[i].Target, realRes[i].Target)
			}
			if len(simRes[i].Path) != len(realRes[i].Path) {
				t.Fatalf("queue %s: result %d path lengths differ", queue, i)
			}
			for j := range realRes[i].Path {
				if simRes[i].Path[j] != realRes[i].Path[j] {
					t.Fatalf("queue %s: result %d paths diverge at %d", queue, i, j)
				}
			}
		}

		// --- Fed-SPSP (bidirectional, no estimator: Alg. 1's setting) ---
		rec2 := &recordingCmp{}
		realEng.cmpHook = func(s *fed.SAC) comparator { rec2.sac = s; return rec2 }
		realPath, _, err := realEng.SPSP(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		rep2 := &replayCmp{t: t, bits: rec2.bits}
		simEng.cmpHook = func(*fed.SAC) comparator { return rep2 }
		simPath, _, err := simEng.SPSP(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.pos != len(rep2.bits) {
			t.Fatalf("queue %s: SPSP simulator consumed %d of %d bits", queue, rep2.pos, len(rep2.bits))
		}
		if !reflect.DeepEqual(rep2.widths, rec2.widths) {
			t.Fatalf("queue %s: SPSP simulator's instance widths diverge from the real run's", queue)
		}
		if opt.BatchedMPC && len(rec2.widths) >= len(rec2.bits) {
			t.Fatalf("queue %s: %d instances for %d comparisons — nothing was coalesced", queue, len(rec2.widths), len(rec2.bits))
		}
		if simPath.Found != realPath.Found || len(simPath.Path) != len(realPath.Path) {
			t.Fatalf("queue %s: SPSP simulation diverged: %v vs %v", queue, simPath.Path, realPath.Path)
		}
		for j := range realPath.Path {
			if simPath.Path[j] != realPath.Path[j] {
				t.Fatalf("queue %s: SPSP paths diverge at %d", queue, j)
			}
		}
	}
}
