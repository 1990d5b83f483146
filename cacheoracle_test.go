package fedroad

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/graph"
)

// The cached-serving staleness oracle: queries served through a QueryCache
// while traffic updates race them must NEVER be stale. Every response echoes
// the traffic version it was computed at; a shadow map records the plaintext
// joint weights at every version; each response's route must match Dijkstra
// on the joint weights of its echoed version. Run under -race this doubles
// as the data-race check for the whole serving path.

// jointAt sums the live per-silo weights into one plaintext weight vector.
// Callers must guarantee no concurrent ApplyTraffic (single-updater rule).
func jointAt(f *Federation) Weights {
	g := f.Graph()
	joint := make(Weights, g.NumArcs())
	for p := 0; p < f.Silos(); p++ {
		for a := 0; a < g.NumArcs(); a++ {
			joint[a] += f.inner.Silo(p).Weight(Arc(a))
		}
	}
	return joint
}

func TestCachedQueriesAreNeverStale(t *testing.T) {
	g, w0 := GenerateRoadNetwork(90, 301)
	silos := SimulateCongestion(w0, 3, Moderate, 302)
	f, err := New(g, w0, silos, Config{Seed: 303})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	qc := f.NewQueryCache(512)

	// Shadow oracle: traffic version → plaintext joint weights at that
	// version. A single updater goroutine is the only weight writer, so it
	// can read the silo weights back race-free right after each apply.
	oracle := map[uint64]Weights{f.TrafficVersion(): jointAt(f)}
	var oracleMu sync.Mutex

	const (
		workers = 6
		iters   = 60
		updates = 12
	)
	type observed struct {
		src, dst Vertex
		route    Route
		ver      uint64
	}
	results := make([][]observed, workers)

	// A small OD-pair pool so repeated queries actually hit the cache.
	pairs := make([][2]Vertex, 8)
	prng := rand.New(rand.NewPCG(304, 0))
	for i := range pairs {
		pairs[i] = [2]Vertex{Vertex(prng.IntN(g.NumVertices())), Vertex(prng.IntN(g.NumVertices()))}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := f.Session()
			defer s.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 305))
			<-start
			for i := 0; i < iters; i++ {
				p := pairs[rng.IntN(len(pairs))]
				route, _, ver, _, err := qc.ShortestPath(p[0], p[1], QueryOptions{}, func() (Route, Stats, uint64, error) {
					return s.ShortestPathAt(p[0], p[1])
				})
				if err != nil {
					t.Errorf("worker %d: ShortestPath(%d,%d): %v", w, p[0], p[1], err)
					return
				}
				results[w] = append(results[w], observed{p[0], p[1], route, ver})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(306, 0))
		<-start
		for i := 0; i < updates; i++ {
			ups := []TrafficUpdate{{
				Silo:     rng.IntN(3),
				Arc:      Arc(rng.IntN(g.NumArcs())),
				TravelMs: int64(1 + rng.IntN(150000)),
			}}
			if _, err := f.ApplyTraffic(ups); err != nil {
				t.Errorf("ApplyTraffic: %v", err)
				return
			}
			oracleMu.Lock()
			oracle[f.TrafficVersion()] = jointAt(f)
			oracleMu.Unlock()
		}
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	checked := 0
	for _, rs := range results {
		for _, o := range rs {
			joint, ok := oracle[o.ver]
			if !ok {
				t.Fatalf("response echoed traffic version %d, never recorded by the updater", o.ver)
			}
			want, _ := graph.DijkstraTo(g, joint, o.src, o.dst)
			if want >= graph.InfCost {
				if o.route.Found {
					t.Fatalf("stale serve: route %d→%d found at version %d, oracle says unreachable", o.src, o.dst, o.ver)
				}
				continue
			}
			if !o.route.Found {
				t.Fatalf("stale serve: no route %d→%d at version %d, oracle cost %d", o.src, o.dst, o.ver, want)
			}
			if got := JointCost(o.route); got != want {
				t.Fatalf("stale serve: route %d→%d joint cost %d at version %d, oracle %d", o.src, o.dst, got, o.ver, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("oracle checked nothing")
	}
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
	joint := jointAt(f)
	want, _ := graph.DijkstraTo(g, joint, 2, 40)
	if got := JointCost(r3); r3.Found && got != want {
		t.Fatalf("post-update cost %d, oracle %d", got, want)
	}

	// kNN path: miss then hit.
	runK := func() ([]Route, Stats, uint64, error) { return s.NearestNeighborsAt(5, 3) }
	if _, _, _, out, err = qc.NearestNeighbors(5, 3, QueryOptions{}, runK); err != nil || out != CacheMiss {
		t.Fatalf("kNN first call: outcome %v err %v, want miss", out, err)
	}
	routes, _, _, out, err := qc.NearestNeighbors(5, 3, QueryOptions{}, runK)
	if err != nil || out != CacheHit {
		t.Fatalf("kNN second call: outcome %v err %v, want hit", out, err)
	}
	if len(routes) != 3 {
		t.Fatalf("kNN hit returned %d routes, want 3", len(routes))
	}
}
