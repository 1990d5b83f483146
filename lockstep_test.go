package fedroad

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// Fed-SAC usage of the round-budget fixture below: sums over the fixed
// query lists of budgetFixture, batched TM-tree, defaults otherwise. The
// instances were measured at the commit before round coalescing (38e11d6),
// as the rounds recorded there over its 8 rounds per instance (8,424 and
// 3,752). The compares are those of a search that runs no comparison whose
// bit it never reads (a stopped side's pop replay ends at its stopping tick,
// kNN at its k-th settle): 1,315 and 477 before that rule. The routes also
// stage only the paths that can still win (core.Options.PruneStaged), which
// took them from 1,225 compares in 414 instances to 1,177 in 400; starting
// each step's tournament in its prune's instance took the same 1,177
// compares to 375 instances, and letting each side of a route step on its
// own clock took them to 1,146 compares in 341 instances.
const (
	parentSPSPInstances = 8424 / 8
	spspCompares        = 1146
	parentKNNInstances  = 3752 / 8
	knnCompares         = 434
)

// budgetFixture is a fixed-seed indexed road network with fixed query lists.
func budgetFixture(t *testing.T) (f *Federation, joint Weights, pairs [][2]Vertex, sources []Vertex) {
	t.Helper()
	f, joint = testFederation(t, 1500, 17)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(17, 38))
	n := f.Graph().NumVertices()
	for len(pairs) < 24 {
		s, d := Vertex(rng.IntN(n)), Vertex(rng.IntN(n))
		if s != d {
			pairs = append(pairs, [2]Vertex{s, d})
		}
	}
	for len(sources) < 8 {
		sources = append(sources, Vertex(rng.IntN(n)))
	}
	return f, joint, pairs, sources
}

// TestLockstepRoundsBudget pins what round coalescing buys: the same
// comparisons (within tie-order noise) in far fewer protocol instances —
// counted as rounds over mpc.RoundsPerCompare, so a cheaper circuit cannot
// hide more instances. Rounds and compares are exact functions of the
// fixture, so the budget is a hard gate, not a timing.
func TestLockstepRoundsBudget(t *testing.T) {
	f, joint, pairs, sources := budgetFixture(t)
	opt := QueryOptions{BatchedMPC: true}

	var rounds, compares int64
	for _, q := range pairs {
		route, stats, err := f.ShortestPath(q[0], q[1], opt)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := graph.DijkstraTo(f.Graph(), joint, q[0], q[1]); JointCost(route) != want {
			t.Fatalf("route (%d,%d) costs %d, oracle %d", q[0], q[1], JointCost(route), want)
		}
		rounds += stats.SAC.Rounds
		compares += stats.SAC.Compares
	}
	t.Logf("SPSP: instances %d (parent %d), compares %d (pinned %d)", rounds/mpc.RoundsPerCompare, parentSPSPInstances, compares, spspCompares)
	checkBudget(t, "SPSP", rounds/mpc.RoundsPerCompare, compares, parentSPSPInstances, spspCompares, 0.55)

	rounds, compares = 0, 0
	for _, s := range sources {
		_, stats, err := f.NearestNeighbors(s, 12, opt)
		if err != nil {
			t.Fatal(err)
		}
		rounds += stats.SAC.Rounds
		compares += stats.SAC.Compares
	}
	t.Logf("kNN: instances %d (parent %d), compares %d (pinned %d)", rounds/mpc.RoundsPerCompare, parentKNNInstances, compares, knnCompares)
	checkBudget(t, "kNN", rounds/mpc.RoundsPerCompare, compares, parentKNNInstances, knnCompares, 0.92)
}

func checkBudget(t *testing.T, what string, instances, compares, parentInstances, pinnedCompares int64, budget float64) {
	t.Helper()
	if float64(instances) > budget*float64(parentInstances) {
		t.Errorf("%s: %d instances exceed %.2f × parent's %d", what, instances, budget, parentInstances)
	}
	if d := float64(compares - pinnedCompares); d > 0.02*float64(pinnedCompares) || -d > 0.02*float64(pinnedCompares) {
		t.Errorf("%s: %d compares not within 2%% of the pinned %d — the saving must be fewer instances, not fewer compares",
			what, compares, pinnedCompares)
	}
}

// TestLockstepDeterministic: what a lockstep query costs is a function of
// the query alone, however its threads are scheduled — the same query twice
// on one engine, and on a fresh session's fork, reports identical Fed-SAC
// counters.
func TestLockstepDeterministic(t *testing.T) {
	f, _, pairs, sources := budgetFixture(t)
	opt := QueryOptions{BatchedMPC: true}
	type cost struct{ compares, rounds, bytes, messages int64 }
	same := func(what string, run func(s *Session) (Stats, error)) {
		t.Helper()
		root, fork := f.Session(), f.Session()
		defer root.Close()
		defer fork.Close()
		var got [3]cost
		for i, s := range []*Session{root, root, fork} {
			stats, err := run(s)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = cost{stats.SAC.Compares, stats.SAC.Rounds, stats.SAC.Bytes, stats.SAC.Messages}
		}
		if got[0] != got[1] || got[0] != got[2] || got[0].rounds == 0 {
			t.Fatalf("%s: costs differ across runs: %+v", what, got)
		}
	}
	for _, q := range pairs[:6] {
		same("route", func(s *Session) (Stats, error) {
			_, stats, err := s.ShortestPath(q[0], q[1], opt)
			return stats, err
		})
	}
	for _, src := range sources[:3] {
		same("kNN", func(s *Session) (Stats, error) {
			_, stats, err := s.NearestNeighbors(src, 12, opt)
			return stats, err
		})
	}
}

// TestNearestNeighborOfOneRunsNoFedSAC: the one nearest vertex is the source
// itself, settled before any comparison, and kNN ends at its k-th settle, so
// asking for it runs no Fed-SAC.
func TestNearestNeighborOfOneRunsNoFedSAC(t *testing.T) {
	f, _ := testFederation(t, 200, 19)
	res, stats, err := f.NearestNeighbors(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !reflect.DeepEqual(res[0].Path, []Vertex{7}) || stats.SAC.Compares != 0 || stats.SAC.Rounds != 0 {
		t.Fatalf("%+v, %d Fed-SACs in %d rounds; want the source alone and none", res, stats.SAC.Compares, stats.SAC.Rounds)
	}
}
