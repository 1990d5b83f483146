package fedroad

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// Fed-SAC usage of the round-budget fixture below, measured at the commit
// before round coalescing (38e11d6): sums over the fixed query lists of
// budgetFixture, batched TM-tree, defaults otherwise.
const (
	parentSPSPRounds   = 8424
	parentSPSPCompares = 1315
	parentKNNRounds    = 3752
	parentKNNCompares  = 477
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
// comparisons (within tie-order noise) in far fewer protocol instances.
// Rounds and compares are exact functions of the fixture, so the budget is a
// hard gate, not a timing.
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
	t.Logf("SPSP: rounds %d (parent %d), compares %d (parent %d)", rounds, parentSPSPRounds, compares, parentSPSPCompares)
	checkBudget(t, "SPSP", rounds, compares, parentSPSPRounds, parentSPSPCompares, 0.55)

	rounds, compares = 0, 0
	for _, s := range sources {
		_, stats, err := f.NearestNeighbors(s, 12, opt)
		if err != nil {
			t.Fatal(err)
		}
		rounds += stats.SAC.Rounds
		compares += stats.SAC.Compares
	}
	t.Logf("kNN: rounds %d (parent %d), compares %d (parent %d)", rounds, parentKNNRounds, compares, parentKNNCompares)
	checkBudget(t, "kNN", rounds, compares, parentKNNRounds, parentKNNCompares, 0.92)
}

func checkBudget(t *testing.T, what string, rounds, compares, parentRounds, parentCompares int64, budget float64) {
	t.Helper()
	if float64(rounds) > budget*float64(parentRounds) {
		t.Errorf("%s: %d rounds exceed %.2f × parent's %d", what, rounds, budget, parentRounds)
	}
	if d := float64(compares - parentCompares); d > 0.02*float64(parentCompares) || -d > 0.02*float64(parentCompares) {
		t.Errorf("%s: %d compares not within 2%% of parent's %d — the saving must be fewer instances, not fewer compares",
			what, compares, parentCompares)
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
