package fedroad

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
	"repro/internal/scenario"
)

// TestCachedQueriesAreNeverStale: queries served through a QueryCache while
// traffic updates race them must NEVER be stale. Every response echoes the
// traffic version it was computed at and must be exact at that version. Run
// under -race this doubles as the data-race check for the whole serving path.
func TestCachedQueriesAreNeverStale(t *testing.T) {
	f, h := rebuildFederation(t, 90, 301)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	qc := f.NewQueryCache(512)
	g := f.Graph()

	const (
		workers = 6
		iters   = 60
		updates = 12
	)
	// A small OD-pair pool so repeated queries actually hit the cache.
	pairs := make([][2]Vertex, 8)
	prng := rand.New(rand.NewPCG(304, 0))
	for i := range pairs {
		pairs[i] = [2]Vertex{Vertex(prng.IntN(g.NumVertices())), Vertex(prng.IntN(g.NumVertices()))}
	}
	rng := rand.New(rand.NewPCG(306, 0))
	race(t, h, scenario.Row{
		Fronts: workers, Queries: iters,
		Front: func(w int) scenario.Front {
			s := f.Session()
			t.Cleanup(s.Close)
			rng := rand.New(rand.NewPCG(uint64(w), 305))
			return func(int) (scenario.Answer, error) {
				p := pairs[rng.IntN(len(pairs))]
				route, _, ver, _, err := qc.ShortestPath(p[0], p[1], QueryOptions{}, func() (Route, Stats, uint64, error) {
					return s.ShortestPathAt(p[0], p[1])
				})
				return answerOf(ver, p[0], p[1], route), err
			}
		},
		Writer: func(int) ([]scenario.Update, error) {
			return applyTraffic(f, scenario.Batch(rng, 1, 3, g.NumArcs(), 1, 150001))
		},
		Ops: updates,
	})
	st := qc.Stats()
	if st.Hits+st.Misses+st.Coalesced != uint64(workers*iters) {
		t.Fatalf("cache accounting: hits %d + misses %d + coalesced %d != %d calls",
			st.Hits, st.Misses, st.Coalesced, workers*iters)
	}
}

// TestQueryCacheVersionedLifecycle pins the sequential contract: repeat query
// hits, traffic update changes the key so the next call misses, and kNN rides
// the same machinery.
func TestQueryCacheVersionedLifecycle(t *testing.T) {
	g, w0 := GenerateRoadNetwork(60, 311)
	f, err := New(g, w0, SimulateCongestion(w0, 2, Moderate, 312), Config{Seed: 313})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	qc := f.NewQueryCache(64)
	s := f.Session()
	defer s.Close()
	run := func() (Route, Stats, uint64, error) { return s.ShortestPathAt(2, 40) }

	r1, _, v1, out, err := qc.ShortestPath(2, 40, QueryOptions{}, run)
	if err != nil || out != CacheMiss {
		t.Fatalf("first call: outcome %v err %v, want miss", out, err)
	}
	r2, _, v2, out, err := qc.ShortestPath(2, 40, QueryOptions{}, run)
	if err != nil || out != CacheHit {
		t.Fatalf("second call: outcome %v err %v, want hit", out, err)
	}
	if v1 != v2 || JointCost(r1) != JointCost(r2) {
		t.Fatalf("hit returned a different result: cost %d@%d vs %d@%d", JointCost(r1), v1, JointCost(r2), v2)
	}

	// The options schedule the stack's comparisons and never change the
	// route: they share the cache line.
	if _, _, _, out, err = qc.ShortestPath(2, 40, QueryOptions{BatchedMPC: true}, func() (Route, Stats, uint64, error) {
		return s.ShortestPathAt(2, 40, QueryOptions{BatchedMPC: true})
	}); err != nil || out != CacheHit {
		t.Fatalf("different options: outcome %v err %v, want hit", out, err)
	}

	// A traffic update bumps the version: the old entry is unreachable.
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 7, TravelMs: 222222}}); err != nil {
		t.Fatal(err)
	}
	r3, _, v3, out, err := qc.ShortestPath(2, 40, QueryOptions{}, run)
	if err != nil || out != CacheMiss {
		t.Fatalf("post-update call: outcome %v err %v, want miss", out, err)
	}
	if v3 != v1+1 {
		t.Fatalf("post-update version %d, want %d", v3, v1+1)
	}
	want, _ := graph.DijkstraTo(g, liveJoint(f), 2, 40)
	if got := JointCost(r3); r3.Found && got != want {
		t.Fatalf("post-update cost %d, oracle %d", got, want)
	}

	// kNN path: miss then hit.
	runK := func() ([]Route, Stats, uint64, error) { return s.NearestNeighborsAt(5, 3) }
	if _, _, _, out, err = qc.NearestNeighbors(5, 3, runK); err != nil || out != CacheMiss {
		t.Fatalf("kNN first call: outcome %v err %v, want miss", out, err)
	}
	routes, _, _, out, err := qc.NearestNeighbors(5, 3, runK)
	if err != nil || out != CacheHit {
		t.Fatalf("kNN second call: outcome %v err %v, want hit", out, err)
	}
	if len(routes) != 3 {
		t.Fatalf("kNN hit returned %d routes, want 3", len(routes))
	}
}
