package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/graph"
)

// servingServer is testServer with the pipeline sized by the caller (as
// -max-concurrent, -max-queue and -cache do) and access to the server struct.
func servingServer(t *testing.T, maxConcurrent, maxQueue, cacheEntries int) (*httptest.Server, *server) {
	t.Helper()
	g, w0 := fedroad.GenerateRoadNetwork(150, 91)
	silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 92)
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(fed, maxConcurrent, maxQueue, cacheEntries)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, srv
}

type servingStats struct {
	TrafficVersion uint64          `json:"traffic_version"`
	UnitWeights    bool            `json:"unit_weights"`
	Admission      admitStatsJSON  `json:"admission"`
	Cache          *cacheStatsJSON `json:"cache"`
	Persist        *persistStats   `json:"persist"`
}

func TestRouteCacheHitMissLifecycle(t *testing.T) {
	ts, _ := servingServer(t, 4, 0, 64)

	var first, second, third routeResponse
	if r := getJSON(t, ts.URL+"/route?s=3&t=120", &first); r.StatusCode != http.StatusOK {
		t.Fatalf("first route: %d", r.StatusCode)
	}
	if first.Cached != "miss" {
		t.Fatalf("first call cached=%q, want miss", first.Cached)
	}
	if r := getJSON(t, ts.URL+"/route?s=3&t=120", &second); r.StatusCode != http.StatusOK {
		t.Fatalf("second route: %d", r.StatusCode)
	}
	if second.Cached != "hit" {
		t.Fatalf("second call cached=%q, want hit", second.Cached)
	}
	if first.TrafficVersion != second.TrafficVersion {
		t.Fatalf("hit echoed version %d, miss echoed %d", second.TrafficVersion, first.TrafficVersion)
	}
	if len(second.Path) != len(first.Path) || second.MeanTravelSec != first.MeanTravelSec {
		t.Fatal("cache hit returned a different route")
	}

	// A traffic update moves the version: the next identical query misses and
	// echoes the new version.
	body := bytes.NewBufferString(`[{"silo":0,"arc":9,"travel_ms":180000}]`)
	resp, err := http.Post(ts.URL+"/traffic", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic update: %d", resp.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/route?s=3&t=120", &third); r.StatusCode != http.StatusOK {
		t.Fatalf("post-update route: %d", r.StatusCode)
	}
	if third.Cached != "miss" {
		t.Fatalf("post-update call cached=%q, want miss", third.Cached)
	}
	if third.TrafficVersion != first.TrafficVersion+1 {
		t.Fatalf("post-update version %d, want %d", third.TrafficVersion, first.TrafficVersion+1)
	}

	// kNN rides the same cache.
	var k1, k2 knnResponse
	getJSON(t, ts.URL+"/knn?s=10&k=3", &k1)
	getJSON(t, ts.URL+"/knn?s=10&k=3", &k2)
	if k1.Cached != "miss" || k2.Cached != "hit" {
		t.Fatalf("knn cached=%q then %q, want miss then hit", k1.Cached, k2.Cached)
	}

	// The counters are visible on /stats and /metrics.
	var st servingStats
	if r := getJSON(t, ts.URL+"/stats", &st); r.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", r.StatusCode)
	}
	if st.Cache == nil {
		t.Fatal("/stats has no cache block with the cache enabled")
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 3 {
		t.Fatalf("cache stats %+v, want 2 hits / 3 misses", st.Cache)
	}
	m := scrape(t, ts.URL)
	if m[`fedroad_cache_hits_total`] != 2 || m[`fedroad_cache_misses_total`] != 3 {
		t.Fatalf("metrics hits=%v misses=%v, want 2/3",
			m[`fedroad_cache_hits_total`], m[`fedroad_cache_misses_total`])
	}
}

// TestCacheOffByDefault: with -cache 0 the response carries no cached field
// and /stats no cache block.
func TestCacheOffByDefault(t *testing.T) {
	ts, _ := servingServer(t, 4, 0, 0)
	var resp routeResponse
	getJSON(t, ts.URL+"/route?s=3&t=120", &resp)
	if resp.Cached != "" {
		t.Fatalf("cached=%q with the cache off", resp.Cached)
	}
	var st servingStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Cache != nil {
		t.Fatal("/stats has a cache block with the cache off")
	}
}

// Shedding: with the in-system population at its limit, the next query gets
// 429 plus a Retry-After hint — it never blocks. Three queries are parked
// mid-protocol (two running, one waiting for a slot) to fill the gate.
func TestAdmissionShedsWith429(t *testing.T) {
	ts, f := chaosServer(t, 2, 1) // in-system limit: 2 running + 1 queued

	f.hold.Lock()
	held := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			resp, err := http.Get(fmt.Sprintf("%s/route?s=%d&t=24", ts.URL, i))
			if err != nil {
				held <- 0
				return
			}
			resp.Body.Close()
			held <- resp.StatusCode
		}()
	}
	var st servingStats
	for st.Admission.Depth != 3 {
		time.Sleep(time.Millisecond)
		getJSON(t, ts.URL+"/stats", &st)
	}

	resp, err := http.Get(ts.URL + "/route?s=3&t=20")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d at the admission limit, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}

	// Released capacity admits again.
	f.hold.Unlock()
	for i := 0; i < 3; i++ {
		if code := <-held; code != http.StatusOK {
			t.Fatalf("held query finished with status %d, want 200", code)
		}
	}
	if r := getJSON(t, ts.URL+"/route?s=3&t=20", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d after release, want 200", r.StatusCode)
	}

	// Accounting is visible on /stats and /metrics and adds up.
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admission.Limit != 3 || st.Admission.Shed != 1 || st.Admission.Admitted != 4 {
		t.Fatalf("admission stats %+v, want limit 3, shed 1, admitted 4", st.Admission)
	}
	if st.Admission.Depth != 0 {
		t.Fatalf("queue depth %d with nothing in flight", st.Admission.Depth)
	}
	m := scrape(t, ts.URL)
	if m[`fedserver_shed_total`] != 1 || m[`fedserver_admitted_total`] != 4 {
		t.Fatalf("fedserver_shed_total = %v, fedserver_admitted_total = %v, want 1 and 4",
			m[`fedserver_shed_total`], m[`fedserver_admitted_total`])
	}
}

// With -max-queue 0 (the default) nothing sheds: requests beyond
// -max-concurrent wait for a slot.
func TestNoSheddingByDefault(t *testing.T) {
	ts, _ := servingServer(t, 1, 0, 0)
	codes := make(chan int, 10)
	for i := 0; i < 10; i++ {
		go func() {
			resp, err := http.Get(fmt.Sprintf("%s/route?s=%d&t=120", ts.URL, i))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < 10; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("status %d with shedding disabled, want 200", code)
		}
	}
	var st servingStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admission.Limit != 0 || st.Admission.Shed != 0 || st.Admission.Admitted != 10 {
		t.Fatalf("admission stats %+v, want limit 0, shed 0, admitted 10", st.Admission)
	}
}

// The unit-weights warning is surfaced in /stats.
func TestUnitWeightsSurfacedInStats(t *testing.T) {
	ts, srv := servingServer(t, 2, 0, 0)
	srv.unitWeights = true
	var st servingStats
	getJSON(t, ts.URL+"/stats", &st)
	if !st.UnitWeights {
		t.Fatal("unit_weights not surfaced in /stats")
	}
}

// TestRouteAfterTrafficDropIgnoresEstimatorParameter is the regression test
// for a wrong route a client could ask for. /route once passed estimator= to
// the library, whose landmark matrices were computed on the first fed-alt or
// fed-alt-max request and never again: after a /traffic batch that LOWERED
// travel times (an incident clearing) their bounds overestimated, A* pruned
// the true shortest path, and the wrong route was cached under the new
// traffic version. The parameter is gone and every answer — cache hits
// included — must equal plaintext Dijkstra on the joint weights at the echoed
// traffic_version. The network, the batch and the pairs are those for which
// the parent commit returned a longer route: with seed 2 (300 vertices, one
// silo halving its time on a seeded 5 % of the arcs) these five pairs under
// both parameters, 8 of 300 random pairs in all; 13–21 of 300 over five seeds
// (EXPERIMENTS.md, "Stale landmarks").
func TestRouteAfterTrafficDropIgnoresEstimatorParameter(t *testing.T) {
	const seed = 2
	g, w0 := fedroad.GenerateRoadNetwork(300, seed)
	silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, seed+1)
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(fed, 4, 0, 64).routes())
	t.Cleanup(ts.Close)

	joint := map[uint64]fedroad.Weights{0: graph.JointWeights(silosW)}
	pairs := [][2]int{{85, 137}, {85, 11}, {127, 102}, {173, 199}, {292, 40}}
	check := func(when, cached string) {
		t.Helper()
		for _, p := range pairs {
			for _, est := range []string{"fed-alt-max", "fed-alt"} {
				var resp routeResponse
				url := fmt.Sprintf("%s/route?s=%d&t=%d&estimator=%s", ts.URL, p[0], p[1], est)
				if r := getJSON(t, url, &resp); r.StatusCode != http.StatusOK {
					t.Fatalf("%s: %s: status %d", when, url, r.StatusCode)
				}
				w := joint[resp.TrafficVersion]
				if w == nil {
					t.Fatalf("%s: %s echoed traffic version %d, which was never applied", when, url, resp.TrafficVersion)
				}
				want, _ := graph.DijkstraTo(g, w, fedroad.Vertex(p[0]), fedroad.Vertex(p[1]))
				if got := int64(resp.MeanTravelSec*float64(fed.Silos())*1000 + 0.5); !resp.Found || got != want {
					t.Errorf("%s: %d->%d with estimator=%s (cached=%s) costs %d, plaintext Dijkstra at version %d says %d",
						when, p[0], p[1], est, resp.Cached, got, resp.TrafficVersion, want)
				}
				// estimator= is no part of the request: the second spelling of
				// a pair is served from the first one's cache entry.
				if want := map[string]string{"fed-alt-max": cached, "fed-alt": "hit"}[est]; resp.Cached != want {
					t.Errorf("%s: %d->%d with estimator=%s: cached=%q, want %q", when, p[0], p[1], est, resp.Cached, want)
				}
			}
		}
	}
	check("before the batch", "miss")

	// One silo reports half its travel time on a seeded 5 % of the arcs.
	rng := rand.New(rand.NewSource(seed))
	after := append(fedroad.Weights(nil), joint[0]...)
	var batch []trafficChange
	for _, a := range rng.Perm(g.NumArcs())[:g.NumArcs()/20] {
		ms := max(silosW[0][a]/2, 1)
		after[a] += ms - silosW[0][a]
		batch = append(batch, trafficChange{Silo: 0, Arc: fedroad.Arc(a), TravelMs: ms})
	}
	joint[1] = after
	body, _ := json.Marshal(batch)
	resp, err := http.Post(ts.URL+"/traffic", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic update: %d", resp.StatusCode)
	}
	check("after the batch", "miss")
	check("after the batch, from the cache", "hit")
}
