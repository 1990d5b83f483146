package fedroad

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cacheFederation is a tiny federation for the QueryCache tests: no query
// runs on it, the tests' miss functions answer in its place, and bump
// advances its traffic version.
func cacheFederation(t *testing.T) *Federation {
	t.Helper()
	g, w0 := GenerateRoadNetwork(30, 401)
	f, err := New(g, w0, SimulateCongestion(w0, 2, Moderate, 402), Config{Mode: ModeIdeal, Seed: 403})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// bump publishes the federation's next traffic version.
func bump(t *testing.T, f *Federation) {
	t.Helper()
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 0, TravelMs: int64(1000 + f.TrafficVersion())}}); err != nil {
		t.Error(err)
	}
}

// answerAt is a miss function that answers the one-vertex route [v] at
// version ver.
func answerAt(v Vertex, ver uint64) func() (Route, Stats, uint64, error) {
	return func() (Route, Stats, uint64, error) {
		return Route{Path: []Vertex{v}, Found: true}, Stats{SettledVertices: int(v)}, ver, nil
	}
}

func TestDoMissThenHit(t *testing.T) {
	qc := cacheFederation(t).NewQueryCache(64)
	calls := 0
	miss := func() (Route, Stats, uint64, error) { calls++; return answerAt(9, 7)() }

	r, st, ver, out, err := qc.ShortestPath(1, 2, QueryOptions{}, miss)
	if err != nil || r.Path[0] != 9 || st.SettledVertices != 9 || ver != 7 || out != CacheMiss {
		t.Fatalf("first call: %v %+v %d %v %v", r, st, ver, out, err)
	}
	r, st, ver, out, err = qc.ShortestPath(1, 2, QueryOptions{}, miss)
	if err != nil || r.Path[0] != 9 || st.SettledVertices != 9 || ver != 7 || out != CacheHit {
		t.Fatalf("second call: %v %+v %d %v %v", r, st, ver, out, err)
	}
	if calls != 1 {
		t.Fatalf("miss function ran %d times, want 1", calls)
	}
	cs := qc.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("stats %+v", cs)
	}
}

func TestErrorsAreNeverCached(t *testing.T) {
	qc := cacheFederation(t).NewQueryCache(8)
	boom := errors.New("boom")
	calls := 0
	_, _, _, _, err := qc.ShortestPath(1, 2, QueryOptions{}, func() (Route, Stats, uint64, error) {
		calls++
		return Route{}, Stats{}, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, _, _, out, err := qc.ShortestPath(1, 2, QueryOptions{}, func() (Route, Stats, uint64, error) {
		calls++
		return answerAt(2, 1)()
	})
	if err != nil || out != CacheMiss {
		t.Fatalf("retry after error: out=%v err=%v", out, err)
	}
	if calls != 2 {
		t.Fatalf("miss ran %d times, want 2 (errors must not stick)", calls)
	}
	if n := qc.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d", n)
	}
}

// TestSingleflight proves the thundering-herd guarantee: G concurrent callers
// of one key run the miss function exactly once and all receive its result.
func TestSingleflight(t *testing.T) {
	qc := cacheFederation(t).NewQueryCache(64)
	const G = 32
	var running atomic.Int32
	gate := make(chan struct{})
	var calls atomic.Int32
	miss := func() (Route, Stats, uint64, error) {
		calls.Add(1)
		<-gate // hold every waiter in the coalesced path
		return answerAt(4, 3)()
	}
	var wg sync.WaitGroup
	outcomes := make([]CacheOutcome, G)
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			running.Add(1)
			r, _, ver, out, err := qc.ShortestPath(1, 2, QueryOptions{}, miss)
			if err != nil || r.Path[0] != 4 || ver != 3 {
				t.Errorf("goroutine %d: %v %d %v", i, r, ver, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Wait until the leader is inside miss and the rest have piled up, then
	// release. (The pile-up is not strictly guaranteed before gate closes,
	// but calls==1 is guaranteed regardless of interleaving.)
	for running.Load() < G {
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("miss ran %d times under %d concurrent callers", calls.Load(), G)
	}
	nMiss := 0
	for _, o := range outcomes {
		if o == CacheMiss {
			nMiss++
		}
	}
	if nMiss != 1 {
		t.Fatalf("%d leaders, want exactly 1", nMiss)
	}
}

func TestLRUEvictionAndStaleClassification(t *testing.T) {
	f := cacheFederation(t)
	qc := f.NewQueryCache(1)
	// Insert A, then B after a traffic update: A (computed at the older
	// version) must be evicted as stale.
	v0 := f.TrafficVersion()
	if _, _, _, _, err := qc.ShortestPath(1, 2, QueryOptions{}, answerAt(2, v0)); err != nil {
		t.Fatal(err)
	}
	bump(t, f)
	v1 := f.TrafficVersion()
	if _, _, _, _, err := qc.ShortestPath(1, 3, QueryOptions{}, answerAt(3, v1)); err != nil {
		t.Fatal(err)
	}
	cs := qc.Stats()
	if cs.EvictedStale != 1 || cs.EvictedCapacity != 0 {
		t.Fatalf("evictions: stale=%d capacity=%d, want 1/0", cs.EvictedStale, cs.EvictedCapacity)
	}
	// A third key at the SAME version as the victim counts as capacity.
	if _, _, _, _, err := qc.ShortestPath(1, 4, QueryOptions{}, answerAt(4, v1)); err != nil {
		t.Fatal(err)
	}
	cs = qc.Stats()
	if cs.EvictedCapacity != 1 {
		t.Fatalf("evictions after same-version insert: %+v", cs)
	}
}

func TestVersionedKeysCoexist(t *testing.T) {
	f := cacheFederation(t)
	qc := f.NewQueryCache(64)
	old, _, _, _, _ := qc.ShortestPath(1, 2, QueryOptions{}, answerAt(10, f.TrafficVersion()))
	bump(t, f)
	nw, _, _, out, _ := qc.ShortestPath(1, 2, QueryOptions{}, answerAt(20, f.TrafficVersion()))
	if old.Path[0] != 10 || nw.Path[0] != 20 || out != CacheMiss {
		t.Fatalf("versioned entries collided: %v %v (%v)", old, nw, out)
	}
	if n := qc.Stats().Entries; n != 2 {
		t.Fatalf("entries = %d, want both versions stored", n)
	}
}

// TestConcurrentMixedLoad shakes the cache under -race: many goroutines,
// overlapping SPSP and kNN keys, rolling versions.
func TestConcurrentMixedLoad(t *testing.T) {
	f := cacheFederation(t)
	qc := f.NewQueryCache(32)
	const G, N = 8, 400
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			bump(t, f)
		}
	}()
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				src := Vertex(i % 17)
				var got Vertex
				var err error
				if i%2 == 0 {
					var r Route
					r, _, _, _, err = qc.ShortestPath(src, src+1, QueryOptions{}, answerAt(src, f.TrafficVersion()))
					got = r.Path[0]
				} else {
					var rs []Route
					rs, _, _, _, err = qc.NearestNeighbors(src, 2, func() ([]Route, Stats, uint64, error) {
						return []Route{{Path: []Vertex{src}}, {Path: []Vertex{src + 1}}}, Stats{}, f.TrafficVersion(), nil
					})
					got = rs[0].Path[0]
				}
				if err != nil || got != src {
					t.Errorf("query from %d answered from %d (%v)", src, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	cs := qc.Stats()
	if cs.Hits+cs.Misses+cs.Coalesced != G*N {
		t.Fatalf("accounting: hits+misses+coalesced = %d, want %d", cs.Hits+cs.Misses+cs.Coalesced, G*N)
	}
}

// TestQueryCacheHoldsAtMostCapacity: a capacity-c cache never stores more than
// c entries, and an SPSP query and a kNN query with equal numbers are
// different keys.
func TestQueryCacheHoldsAtMostCapacity(t *testing.T) {
	for _, c := range []int{1, 100} {
		qc := cacheFederation(t).NewQueryCache(c)
		for i := 0; i < 3*c; i++ {
			if _, _, _, _, err := qc.ShortestPath(Vertex(i%20), Vertex(i/20), QueryOptions{}, answerAt(0, 0)); err != nil {
				t.Fatal(err)
			}
			if n := qc.Stats().Entries; n > c {
				t.Fatalf("capacity %d: %d entries after %d inserts", c, n, i+1)
			}
		}
		if cs := qc.Stats(); cs.Entries != c || cs.EvictedCapacity != uint64(2*c) {
			t.Fatalf("capacity %d: %+v, want %d entries and %d capacity evictions", c, cs, c, 2*c)
		}
	}

	qc := cacheFederation(t).NewQueryCache(8)
	r, _, _, _, err := qc.ShortestPath(5, 3, QueryOptions{}, answerAt(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	rs, _, _, out, err := qc.NearestNeighbors(5, 3, func() ([]Route, Stats, uint64, error) {
		return make([]Route, 3), Stats{}, 0, nil
	})
	if err != nil || out != CacheMiss || len(rs) != 3 || len(r.Path) != 1 {
		t.Fatalf("kNN(5, 3) after SPSP(5, 3): %d routes, outcome %v, err %v", len(rs), out, err)
	}
}

// TestPanickingFlightReleasesWaiters: a leader whose query panics fails its
// flight before the panic leaves do — a coalesced waiter gets an error
// instead of blocking for good — and drops its entry, so the next call of
// the key runs the query again.
func TestPanickingFlightReleasesWaiters(t *testing.T) {
	qc := cacheFederation(t).NewQueryCache(8)
	inside, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		qc.ShortestPath(1, 2, QueryOptions{}, func() (Route, Stats, uint64, error) {
			close(inside)
			<-release
			panic("query failed")
		})
	}()
	<-inside
	waited := make(chan error, 1)
	go func() {
		_, _, _, out, err := qc.ShortestPath(1, 2, QueryOptions{}, answerAt(5, 1))
		if out != CacheCoalesced {
			err = errors.New("the waiter did not join the flight")
		}
		waited <- err
	}()
	for qc.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	select {
	case err := <-waited:
		if err == nil || err.Error() == "the waiter did not join the flight" {
			t.Fatalf("waiter of a panicked flight: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter is still blocked 5 s after its leader panicked")
	}
	if p := <-panicked; p != "query failed" {
		t.Fatalf("the leader's panic was %v, want it passed on", p)
	}
	r, _, _, out, err := qc.ShortestPath(1, 2, QueryOptions{}, answerAt(6, 1))
	if err != nil || out != CacheMiss || r.Path[0] != 6 {
		t.Fatalf("call after the panic: %v %v %v, want a fresh miss", r, out, err)
	}
}
