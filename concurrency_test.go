package fedroad

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
)

func TestSessionMatchesFederation(t *testing.T) {
	f, joint := testFederation(t, 300, 41)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	sess := f.Session()
	defer sess.Close()
	if sess.Federation() != f {
		t.Fatal("session detached from its federation")
	}
	for _, pair := range [][2]Vertex{{0, 250}, {17, 201}, {99, 3}} {
		route, _, err := sess.ShortestPath(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(f.Graph(), joint, pair[0], pair[1])
		if !route.Found || JointCost(route) != want {
			t.Fatalf("%v: session cost %d, want %d", pair, JointCost(route), want)
		}
	}
	if sess.Stats().Compares == 0 {
		t.Fatal("session recorded no secure comparisons")
	}
}

func TestSessionsRunInParallel(t *testing.T) {
	f, joint := testFederation(t, 300, 42)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	opts := facadeConfigs
	n := f.Graph().NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := f.Session()
			defer sess.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 43))
			for i := 0; i < 10; i++ {
				s := Vertex(rng.IntN(n))
				d := Vertex(rng.IntN(n))
				route, _, err := sess.ShortestPath(s, d, opts[(w+i)%len(opts)])
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := graph.BidirectionalDijkstra(f.Graph(), joint, s, d)
				if route.Found {
					if JointCost(route) != want {
						t.Errorf("worker %d: %d->%d cost %d, want %d", w, s, d, JointCost(route), want)
						return
					}
				} else if want < graph.InfCost {
					t.Errorf("worker %d: %d->%d not found, want cost %d", w, s, d, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentQueriesUnderTrafficStress is the -race stress test for the
// session/locking model: query workers hammer SPSP through private sessions
// while another goroutine continuously streams traffic updates through
// ApplyTraffic. Every route is checked against a plaintext Dijkstra run on
// the exact silo-weight snapshot the query observed — the ground truth is
// materialized inside the same read-lock span as the query, so any torn
// read of weights or index would surface as a cost mismatch (and any data
// race trips the race detector).
func TestConcurrentQueriesUnderTrafficStress(t *testing.T) {
	f, _ := testFederation(t, 300, 44)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	g := f.Graph()
	n := g.NumVertices()

	const workers = 6
	const queriesPerWorker = 10
	done := make(chan struct{})
	var updates atomic.Int64

	// Updater: random jams and recoveries, index refreshed atomically.
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		rng := rand.New(rand.NewPCG(99, 45))
		for {
			select {
			case <-done:
				return
			default:
			}
			batch := make([]TrafficUpdate, 0, 6)
			for j := 0; j < 6; j++ {
				batch = append(batch, TrafficUpdate{
					Silo:     rng.IntN(f.Silos()),
					Arc:      Arc(rng.IntN(g.NumArcs())),
					TravelMs: 1000 + int64(rng.IntN(400000)),
				})
			}
			if _, err := f.ApplyTraffic(batch); err != nil {
				t.Error(err)
				return
			}
			updates.Add(1)
		}
	}()

	opts := facadeConfigs
	var qWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		qWG.Add(1)
		go func(w int) {
			defer qWG.Done()
			sess := f.Session()
			defer sess.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 46))
			for i := 0; i < queriesPerWorker; i++ {
				s := Vertex(rng.IntN(n))
				d := Vertex(rng.IntN(n))
				opt := opts[(w+i)%len(opts)]

				// Snapshot the joint weights inside the same read-lock span
				// as the query itself: this is exactly the state the
				// federation guarantees the query observes.
				f.mu.RLock()
				joint := f.inner.JointWeights()
				route, _, err := sess.shortestPathLocked(s, d, opt)
				f.mu.RUnlock()

				if err != nil {
					t.Error(err)
					return
				}
				want, _ := graph.BidirectionalDijkstra(g, joint, s, d)
				if route.Found {
					if JointCost(route) != want {
						t.Errorf("worker %d query %d (%d->%d, %+v): cost %d, plaintext %d",
							w, i, s, d, opt, JointCost(route), want)
						return
					}
				} else if want < graph.InfCost {
					t.Errorf("worker %d query %d: %d->%d unreachable, plaintext cost %d", w, i, s, d, want)
					return
				}
			}
		}(w)
	}
	qWG.Wait()
	close(done)
	updWG.Wait()
	if updates.Load() == 0 {
		t.Fatal("updater never ran — the stress test exercised nothing")
	}
	t.Logf("served %d queries across %d sessions against %d concurrent index updates",
		workers*queriesPerWorker, workers, updates.Load())
}

// Every out-of-range update is rejected as the client's mistake
// (ErrInvalidUpdate) and nothing is applied: the traffic version stays put.
func TestSetTrafficValidation(t *testing.T) {
	f, _ := testFederation(t, 100, 47)
	numArcs := f.Graph().NumArcs()
	ver := f.TrafficVersion()
	for _, c := range []struct {
		silo   int
		arc    Arc
		travel int64
	}{
		{-1, 0, 1000},
		{3, 0, 1000},
		{0, -1, 1000},
		{0, Arc(numArcs), 1000},
		{0, 0, 0},
		{0, 0, -5},
		{0, 0, MaxTravelMs},
	} {
		_, err := f.ApplyTraffic([]TrafficUpdate{{Silo: c.silo, Arc: c.arc, TravelMs: c.travel}})
		if !errors.Is(err, ErrInvalidUpdate) {
			t.Errorf("ApplyTraffic(silo %d, arc %d, %dms): %v, want ErrInvalidUpdate", c.silo, c.arc, c.travel, err)
		}
	}
	if got := f.TrafficVersion(); got != ver {
		t.Fatalf("rejected updates moved the traffic version %d -> %d", ver, got)
	}
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 0, TravelMs: 1000}}); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	if got := f.TrafficVersion(); got != ver+1 {
		t.Fatalf("valid update moved the traffic version %d -> %d, want +1", ver, got)
	}
}

func TestApplyTrafficRejectsBatchAtomically(t *testing.T) {
	f, _ := testFederation(t, 100, 48)
	before := f.inner.Silo(0).Weight(5)
	_, err := f.ApplyTraffic([]TrafficUpdate{
		{Silo: 0, Arc: 5, TravelMs: 77777},           // valid
		{Silo: 0, Arc: 5, TravelMs: MaxTravelMs + 1}, // invalid
	})
	if err == nil {
		t.Fatal("batch with an invalid update accepted")
	}
	if got := f.inner.Silo(0).Weight(5); got != before {
		t.Fatalf("rejected batch mutated weights: %d -> %d", before, got)
	}
}

func TestApplyTrafficRefreshesIndex(t *testing.T) {
	f, _ := testFederation(t, 250, 49)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before, _, err := f.ShortestPath(0, 200)
	if err != nil || !before.Found {
		t.Fatalf("no base route: %v", err)
	}
	var batch []TrafficUpdate
	for i := 0; i+1 < len(before.Path); i++ {
		a := f.Graph().FindArc(before.Path[i], before.Path[i+1])
		for p := 0; p < f.Silos(); p++ {
			batch = append(batch, TrafficUpdate{Silo: p, Arc: a, TravelMs: 900000})
		}
	}
	if _, err := f.ApplyTraffic(batch); err != nil {
		t.Fatal(err)
	}
	// Post-update consistency: the indexed route must match a plaintext
	// Dijkstra on the new joint weights.
	fast, _, err := f.ShortestPath(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.DijkstraTo(f.Graph(), f.inner.JointWeights(), 0, 200)
	if JointCost(fast) != want {
		t.Fatalf("post-update costs diverge: indexed %d, plaintext %d", JointCost(fast), want)
	}
}

func TestPreprocessingPoolServesQueries(t *testing.T) {
	g, w0 := GenerateRoadNetwork(150, 50)
	silos := SimulateCongestion(w0, 3, Moderate, 51)
	f, err := New(g, w0, silos, Config{
		Mode: ModeProtocol, Seed: 52,
		PreprocessPool: 256, PreprocessWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	joint := make(Weights, len(w0))
	for _, s := range silos {
		for a, w := range s {
			joint[a] += w
		}
	}
	route, _, err := f.ShortestPath(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.DijkstraTo(g, joint, 0, 100)
	if !route.Found || JointCost(route) != want {
		t.Fatalf("pool-served route cost %d, want %d", JointCost(route), want)
	}
	st := f.PoolStats()
	if st.Produced == 0 || st.Hits == 0 {
		t.Fatalf("pool idle during protocol-mode query: %+v", st)
	}
	// After Close the pool stops replenishing but queries still work via the
	// dealer fallback.
	f.Close()
	route, _, err = f.ShortestPath(0, 100)
	if err != nil || !route.Found || JointCost(route) != want {
		t.Fatalf("post-Close query broken: %v cost %d, want %d", err, JointCost(route), want)
	}
}

func TestPoolStatsWithoutPool(t *testing.T) {
	f, _ := testFederation(t, 50, 53)
	if st := f.PoolStats(); st != (mpc.PoolStats{}) {
		t.Fatalf("pool stats without a pool: %+v", st)
	}
	f.Close() // must be a no-op, not a panic
}
