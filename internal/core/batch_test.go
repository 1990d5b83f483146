package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
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

// knnWork is what one Fed-SSSP from vertex 658 of the budget fixture (the
// 1,500-vertex road network seeded 17 that TestStagedJoinKeepsSettlesAndPrunes
// rebuilds) settles and compares, per k and queue stack.
var knnWork = []struct {
	k                        int
	batched                  bool
	settled, sacs, instances int64
}{
	{1, true, 1, 0, 0}, {1, false, 1, 0, 0},
	{20, true, 20, 114, 98}, {20, false, 20, 169, 169},
	{1500, true, 1500, 21185, 19749}, {1500, false, 1500, 28409, 28409},
}

// TestKNNWorkPinned pins kNN's schedule: for k = 1, 20 and every vertex,
// on the batched TM-tree and on the unbatched heap, Fed-SSSP settles as many
// vertices and runs as many Fed-SACs in as many instances as pinned, and
// its answers equal plaintext Dijkstra's.
func TestKNNWorkPinned(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(1500, 17)
	f, err := fed.New(g, w0, traffic.SiloWeights(w0, 3, traffic.Moderate, 18), mpc.Params{Mode: mpc.ModeIdeal, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{f: f, joint: f.JointWeights()}
	full := graph.Dijkstra(g, fx.joint, 658)
	for _, want := range knnWork {
		opt := Options{Queue: pq.KindHeap}
		if want.batched {
			opt = Options{Queue: pq.KindTMTree, BatchedMPC: true}
		}
		res, st, err := fx.engine(t, opt).SSSP(658, want.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if jointSum(r.Partial) != full.Dist[r.Target] {
				t.Fatalf("k=%d batched=%v: distance to %d = %d, want %d",
					want.k, want.batched, r.Target, jointSum(r.Partial), full.Dist[r.Target])
			}
		}
		if got := []int64{int64(st.SettledVertices), st.SAC.Compares, st.SAC.Rounds / mpc.RoundsPerCompare}; !slices.Equal(got, []int64{want.settled, want.sacs, want.instances}) {
			t.Errorf("k=%d batched=%v: %d settles, %d Fed-SACs, %d instances; want %d, %d, %d",
				want.k, want.batched, got[0], got[1], got[2], want.settled, want.sacs, want.instances)
		}
	}
}
