package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
)

func TestBatchedMPCQueriesExact(t *testing.T) {
	for _, mode := range []mpc.Mode{mpc.ModeIdeal, mpc.ModeProtocol} {
		kind := "grid"
		if mode == mpc.ModeProtocol {
			kind = "tiny"
		}
		fx := newFixture(t, kind, 91, mode)
		e := fx.engine(t, Options{
			Queue:      pq.KindTMTree,
			Estimator:  lb.FedAMPS,
			Index:      fx.idx,
			BatchedMPC: true,
		})
		rng := rand.New(rand.NewPCG(uint64(mode)+1, 8))
		n := fx.f.Graph().NumVertices()
		trials := 30
		if mode == mpc.ModeProtocol {
			trials = 6
		}
		for trial := 0; trial < trials; trial++ {
			s := graph.Vertex(rng.IntN(n))
			tt := graph.Vertex(rng.IntN(n))
			res, _, err := e.SPSP(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			fx.checkSPSP(t, res, s, tt)
		}
	}
}

func TestBatchedMPCReducesRounds(t *testing.T) {
	fx := newFixture(t, "grid", 93, mpc.ModeIdeal)
	run := func(batched bool) (rounds, compares int64) {
		e := fx.engine(t, Options{
			Queue:      pq.KindTMTree,
			Estimator:  lb.FedAMPS,
			Index:      fx.idx,
			BatchedMPC: batched,
		})
		var r, c int64
		rng := rand.New(rand.NewPCG(4, 4))
		n := fx.f.Graph().NumVertices()
		for trial := 0; trial < 20; trial++ {
			s := graph.Vertex(rng.IntN(n))
			tt := graph.Vertex(rng.IntN(n))
			_, stats, err := e.SPSP(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			r += stats.SAC.Rounds
			c += stats.SAC.Compares
		}
		return r, c
	}
	seqRounds, seqCmp := run(false)
	batRounds, batCmp := run(true)
	if batRounds >= seqRounds {
		t.Fatalf("batching did not reduce rounds: %d vs %d", batRounds, seqRounds)
	}
	// The comparison work itself must stay in the same ballpark (batching
	// changes rounds, not the number of comparisons needed; tiny differences
	// come from tie-order effects of identical keys).
	if batCmp > seqCmp*3/2 || seqCmp > batCmp*3/2 {
		t.Fatalf("comparison counts diverged: batched %d vs sequential %d", batCmp, seqCmp)
	}
}

// TestBatchedKNNFewerRounds: batching schedules a kNN's Fed-SACs, never
// chooses them. Batched and unbatched Fed-SSSP return the same answer from
// the same comparisons, batched in fewer rounds.
func TestBatchedKNNFewerRounds(t *testing.T) {
	fx := newFixture(t, "roadlike", 27, mpc.ModeIdeal)
	run := func(batched bool) ([]PathResult, QueryStats) {
		e := fx.engine(t, Options{Queue: pq.KindTMTree, BatchedMPC: batched})
		res, stats, err := e.SSSP(9, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	plainRes, plain := run(false)
	batchedRes, batched := run(true)
	if !reflect.DeepEqual(plainRes, batchedRes) {
		t.Fatalf("answers differ:\n unbatched %+v\n batched   %+v", plainRes, batchedRes)
	}
	full := graph.Dijkstra(fx.f.Graph(), fx.joint, 9)
	for _, r := range batchedRes {
		if jointSum(r.Partial) != full.Dist[r.Target] {
			t.Fatalf("distance to %d = %d, want %d", r.Target, jointSum(r.Partial), full.Dist[r.Target])
		}
	}
	if plain.SAC.Compares == 0 || batched.SAC.Compares != plain.SAC.Compares {
		t.Fatalf("Fed-SACs: batched %d, unbatched %d; want the same, non-zero", batched.SAC.Compares, plain.SAC.Compares)
	}
	if batched.SAC.Rounds >= plain.SAC.Rounds {
		t.Fatalf("batched kNN took %d rounds, unbatched %d", batched.SAC.Rounds, plain.SAC.Rounds)
	}
	t.Logf("%d Fed-SACs in %d rounds unbatched, %d batched", plain.SAC.Compares, plain.SAC.Rounds, batched.SAC.Rounds)
}

// TestKNNOfOneRunsNoFedSAC: the one nearest vertex is the source, settled
// before any comparison, and kNN ends at its k-th settle, so k = 1 runs no
// Fed-SAC, batched or not.
func TestKNNOfOneRunsNoFedSAC(t *testing.T) {
	fx := newFixture(t, "tiny", 99, mpc.ModeIdeal)
	for _, batched := range []bool{false, true} {
		res, stats, err := fx.engine(t, Options{Queue: pq.KindTMTree, BatchedMPC: batched}).SSSP(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Target != 5 || stats.SAC.Compares != 0 || stats.SAC.Rounds != 0 {
			t.Fatalf("batched=%v: %+v, %d Fed-SACs in %d rounds; want the source alone and none",
				batched, res, stats.SAC.Compares, stats.SAC.Rounds)
		}
	}
}

func TestBatchedMPCRequiresTMTree(t *testing.T) {
	fx := newFixture(t, "tiny", 95, mpc.ModeIdeal)
	if _, err := NewEngine(fx.f, Options{Queue: pq.KindHeap, BatchedMPC: true}); err == nil {
		t.Fatal("BatchedMPC with heap accepted")
	}
	if _, err := NewEngine(fx.f, Options{BatchedMPC: true}); err == nil {
		t.Fatal("BatchedMPC with default heap accepted")
	}
	if _, err := NewEngine(fx.f, Options{Queue: pq.KindTMTree, BatchedMPC: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedSSSP(t *testing.T) {
	fx := newFixture(t, "grid", 97, mpc.ModeIdeal)
	e := fx.engine(t, Options{Queue: pq.KindTMTree, BatchedMPC: true})
	results, stats, err := e.SSSP(3, 15)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Dijkstra(fx.f.Graph(), fx.joint, 3)
	for _, r := range results {
		if jointSum(r.Partial) != full.Dist[r.Target] {
			t.Fatalf("batched SSSP dist to %d = %d, want %d",
				r.Target, jointSum(r.Partial), full.Dist[r.Target])
		}
	}
	// On flat grids expansion batches are small (≤4 neighbors), so there is
	// little to batch — but batching must never cost extra rounds. The round
	// reduction itself is asserted on hierarchical searches (larger batches)
	// in TestBatchedMPCReducesRounds.
	if stats.SAC.Rounds > stats.SAC.Compares*int64(mpc.RoundsPerCompare) {
		t.Fatal("batching increased rounds")
	}
}
