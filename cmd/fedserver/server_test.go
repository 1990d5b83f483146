package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/transport"
)

// timeoutErr is a minimal net.Error with Timeout() true — the shape a
// socket deadline expiry takes inside a *net.OpError.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// testNetwork is testServer's road network and silo weights.
func testNetwork() (*fedroad.Graph, fedroad.Weights, []fedroad.Weights) {
	g, w0 := fedroad.GenerateRoadNetwork(250, 31)
	return g, w0, fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 32)
}

func testServer(t *testing.T) (*httptest.Server, *fedroad.Federation, fedroad.Weights) {
	t.Helper()
	g, w0, silosW := testNetwork()
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{Mode: fedroad.ModeIdeal, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	joint := make(fedroad.Weights, len(w0))
	for _, s := range silosW {
		for a, w := range s {
			joint[a] += w
		}
	}
	ts := httptest.NewServer(newServer(fed, 8, 0, 0).routes())
	t.Cleanup(ts.Close)
	return ts, fed, joint
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestRouteEndpoint(t *testing.T) {
	ts, fed, joint := testServer(t)
	var resp routeResponse
	r := getJSON(t, ts.URL+"/route?s=3&t=200", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if !resp.Found || resp.Segments != len(resp.Path)-1 {
		t.Fatalf("bad response: %+v", resp)
	}
	want, _ := graph.DijkstraTo(fed.Graph(), joint, 3, 200)
	got := resp.MeanTravelSec * float64(fed.Silos()) * 1000
	if int64(got+0.5) != want {
		t.Fatalf("route cost %f, want %d", got, want)
	}
	if resp.FedSACs == 0 || resp.MPCRounds == 0 {
		t.Fatalf("missing MPC accounting: %+v", resp)
	}
	// The default request runs the stack the benchmark measures: the batched
	// MPC schedule on the TM-tree.
	_, lib, err := fed.ShortestPath(3, 200, fedroad.QueryOptions{BatchedMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MPCRounds != lib.SAC.Rounds || resp.FedSACs != lib.SAC.Compares {
		t.Fatalf("default route ran %d rounds / %d Fed-SACs, the batched library query %d / %d",
			resp.MPCRounds, resp.FedSACs, lib.SAC.Rounds, lib.SAC.Compares)
	}
	// The request does not choose the algorithm: the parameters that once
	// did are ignored like any unknown one — same answer, same stack.
	for _, q := range []string{"queue=heap", "queue=l-heap&estimator=none", "noindex=1", "estimator=bogus"} {
		r = getJSON(t, ts.URL+"/route?s=3&t=200&"+q, &resp)
		if r.StatusCode != http.StatusOK || !resp.Found {
			t.Fatalf("route with %s failed: %d %+v", q, r.StatusCode, resp)
		}
		if got := int64(resp.MeanTravelSec*float64(fed.Silos())*1000 + 0.5); got != want {
			t.Fatalf("route with %s costs %d, want %d", q, got, want)
		}
		if resp.MPCRounds != lib.SAC.Rounds || resp.FedSACs != lib.SAC.Compares {
			t.Fatalf("route with %s ran %d rounds / %d Fed-SACs, the one stack runs %d / %d",
				q, resp.MPCRounds, resp.FedSACs, lib.SAC.Rounds, lib.SAC.Compares)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, q := range []string{
		"/route?t=5",          // missing s
		"/route?s=5",          // missing t
		"/route?s=-1&t=5",     // negative
		"/route?s=5&t=999999", // out of range
		"/route?s=a&t=5",      // not a number
	} {
		if r := getJSON(t, ts.URL+q, nil); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, r.StatusCode)
		}
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts, fed, joint := testServer(t)
	var resp knnResponse
	r := getJSON(t, ts.URL+"/knn?s=10&k=5", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("bad kNN response: %+v", resp)
	}
	if resp.Stats.FedSACs == 0 || resp.Stats.MPCRounds == 0 || resp.Stats.SettledVerts == 0 {
		t.Fatalf("missing aggregate kNN stats: %+v", resp.Stats)
	}
	full := graph.Dijkstra(fed.Graph(), joint, 10)
	for _, rr := range resp.Results {
		tgt := rr.Path[len(rr.Path)-1]
		want := float64(full.Dist[tgt]) / float64(fed.Silos()) / 1000
		if diff := rr.MeanTravelSec - want; diff > 0.001 || diff < -0.001 {
			t.Fatalf("kNN dist to %d: %f, want %f", tgt, rr.MeanTravelSec, want)
		}
	}
	if r := getJSON(t, ts.URL+"/knn?s=10&k=0", nil); r.StatusCode != http.StatusBadRequest {
		t.Fatal("k=0 accepted")
	}
}

// TestKNNNoFabricatedStats pins the satellite fix: per-neighbor entries carry
// route fields only — the old handler rendered each route through
// toResponse(rt, Stats{}), publishing fabricated zeroed fed_sacs/mpc_rounds
// per result. Cost counters must appear exactly once, under "stats".
func TestKNNNoFabricatedStats(t *testing.T) {
	ts, _, _ := testServer(t)
	var raw struct {
		Results []map[string]any `json:"results"`
		Stats   map[string]any   `json:"stats"`
	}
	if r := getJSON(t, ts.URL+"/knn?s=10&k=3", &raw); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(raw.Results) == 0 {
		t.Fatal("no results")
	}
	for i, rr := range raw.Results {
		for _, key := range []string{"fed_sacs", "mpc_rounds", "mpc_bytes", "settled_vertices", "local_us"} {
			if _, present := rr[key]; present {
				t.Errorf("results[%d] carries per-route stat %q (fabricated in the old API)", i, key)
			}
		}
	}
	if v, ok := raw.Stats["fed_sacs"].(float64); !ok || v == 0 {
		t.Errorf("aggregate stats.fed_sacs missing or zero: %v", raw.Stats["fed_sacs"])
	}
}

// TestKNNBatchedReducesRounds: /knn runs the TM-tree's tournament
// comparisons as batched secure comparisons — one protocol instance per
// tournament level — so the served query pays exactly the rounds of the
// library's query and strictly fewer than its unbatched twin, which runs one
// RoundsPerCompare-round instance per Fed-SAC. The schedule is the server's
// choice: the retired batched= parameter is ignored.
func TestKNNBatchedReducesRounds(t *testing.T) {
	ts, fed, _ := testServer(t)
	var served knnResponse
	if r := getJSON(t, ts.URL+"/knn?s=10&k=5&batched=0", &served); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	routes, lib, err := fed.NearestNeighbors(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != len(served.Results) {
		t.Fatalf("result count diverged: %d vs %d", len(routes), len(served.Results))
	}
	if served.Stats.FedSACs != lib.SAC.Compares || served.Stats.MPCRounds != lib.SAC.Rounds {
		t.Fatalf("/knn ran %d Fed-SACs in %d rounds, the library query %d in %d",
			served.Stats.FedSACs, served.Stats.MPCRounds, lib.SAC.Compares, lib.SAC.Rounds)
	}
	if unbatched := served.Stats.FedSACs * mpc.RoundsPerCompare; served.Stats.FedSACs == 0 || served.Stats.MPCRounds >= unbatched {
		t.Fatalf("/knn did not run batched: %d rounds for %d Fed-SACs, unbatched %d",
			served.Stats.MPCRounds, served.Stats.FedSACs, unbatched)
	}
}

// TestKNNIgnoresRemovedParameters: /knn reads s and k; estimator= and queue=,
// which it once validated, are ignored like any unknown parameter and the
// answer still comes from the batched TM-tree run.
func TestKNNIgnoresRemovedParameters(t *testing.T) {
	ts, _, _ := testServer(t)
	var plain, odd knnResponse
	getJSON(t, ts.URL+"/knn?s=10&k=3", &plain)
	for _, q := range []string{"estimator=fed-amps", "queue=heap"} {
		if r := getJSON(t, ts.URL+"/knn?s=10&k=3&"+q, &odd); r.StatusCode != http.StatusOK {
			t.Fatalf("/knn with %s: status %d, want 200", q, r.StatusCode)
		}
		if odd.Stats.MPCRounds != plain.Stats.MPCRounds || odd.Stats.FedSACs != plain.Stats.FedSACs {
			t.Fatalf("/knn with %s ran %d rounds / %d Fed-SACs, without it %d / %d",
				q, odd.Stats.MPCRounds, odd.Stats.FedSACs, plain.Stats.MPCRounds, plain.Stats.FedSACs)
		}
	}
}

func TestQueryStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", fedroad.ErrInvalidQuery), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", fedroad.ErrSessionPoisoned), http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", serve.ErrShed), http.StatusTooManyRequests},
		// An unclassified error is an internal failure, not the client's
		// fault: the old default of 400 hid engine bugs as user errors.
		{errors.New("engine exploded"), http.StatusInternalServerError},

		// Mesh transport taxonomy. A lane round timeout — the exact error
		// shape LaneConn.Recv produces when a silo stalls — is a 504.
		{fmt.Errorf("transport: recv from party 2 (lane 17): %w", transport.ErrRoundTimeout), http.StatusGatewayTimeout},
		// A link declared dead mid-round surfaces wrapped in
		// ErrSessionPoisoned (the engine poisons fast on ErrPeerDown): 503,
		// retry on a fresh session over the redialed link.
		{fmt.Errorf("%w: transport: recv from party 1 (lane 17, link gen 2): %v",
			fedroad.ErrSessionPoisoned, transport.ErrPeerDown), http.StatusServiceUnavailable},
		// A raw peer-down error (session dial racing a redial) maps the
		// same way instead of masquerading as an internal failure.
		{fmt.Errorf("transport: send to party 1 (lane 3): %w", transport.ErrPeerDown), http.StatusServiceUnavailable},
		// Socket-level deadline expiries (e.g. a stalled mTLS link hitting
		// its heartbeat write budget) count as timeouts too.
		{fmt.Errorf("mesh write: %w", &net.OpError{Op: "write", Err: timeoutErr{}}), http.StatusGatewayTimeout},
		// mTLS handshake rejections and redial dial failures carry no
		// taxonomy mark: internal failure, not the client's fault.
		{errors.New("transport: dial peer 2: remote error: tls: bad certificate"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := queryStatus(c.err); got != c.want {
			t.Errorf("queryStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// parseMetrics reads Prometheus text exposition into name{labels} → value.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, string(body))
}

// TestMetricsEndpoint scrapes /metrics around a batch of queries and checks
// that the exposition parses and the core counters increase monotonically.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	before := scrape(t, ts.URL)
	for _, k := range []string{
		"fedroad_mpc_compares_total",
		`fedroad_queries_total{kind="spsp"}`,
		`fedroad_queries_total{kind="sssp"}`,
		"fedroad_mpc_engine_forks_total",
		"fedserver_admitted_total",
		"fedroad_graph_vertices",
	} {
		if _, ok := before[k]; !ok {
			t.Fatalf("metric %s missing from exposition", k)
		}
	}

	getJSON(t, ts.URL+"/route?s=3&t=200", nil)
	getJSON(t, ts.URL+"/knn?s=10&k=3", nil)
	getJSON(t, ts.URL+"/route?s=1&t=999999", nil) // counted as a 4xx

	after := scrape(t, ts.URL)
	monotone := []string{
		"fedroad_mpc_compares_total",
		"fedroad_mpc_rounds_total",
		`fedroad_queries_total{kind="spsp"}`,
		`fedroad_queries_total{kind="sssp"}`,
		`fedroad_query_seconds_count{kind="spsp"}`,
		`fedroad_query_settled_vertices_total{kind="sssp"}`,
		"fedroad_mpc_engine_forks_total",
		"fedserver_admitted_total",
		`fedserver_http_requests_total{code="2xx",path="/route"}`,
		`fedserver_http_request_seconds_count{path="/knn"}`,
	}
	for _, k := range monotone {
		if after[k] <= before[k] {
			t.Errorf("%s did not increase: %v -> %v", k, before[k], after[k])
		}
	}
	if inc := after[`fedserver_http_requests_total{code="4xx",path="/route"}`] - before[`fedserver_http_requests_total{code="4xx",path="/route"}`]; inc != 1 {
		t.Errorf("/route 4xx counter moved by %v, want 1", inc)
	}
}

// TestStatsIncludesMetricsSnapshot: /stats is the registry snapshot.
func TestStatsIncludesMetricsSnapshot(t *testing.T) {
	ts, _, _ := testServer(t)
	getJSON(t, ts.URL+"/route?s=3&t=200", nil)
	if st := stats(t, ts.URL); st[`fedroad_queries_total{kind="spsp"}`] < 1 {
		t.Errorf("snapshot missing query counter: %v", st)
	}
}

// TestPprofGated: /debug/pprof/* exists only with -pprof.
func TestPprofGated(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without -pprof")
	}

	g, w0 := fedroad.GenerateRoadNetwork(60, 7)
	silosW := fedroad.SimulateCongestion(w0, 2, fedroad.Moderate, 8)
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{Mode: fedroad.ModeIdeal, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(fed, 2, 0, 0)
	srv.pprof = true
	ts2 := httptest.NewServer(srv.routes())
	t.Cleanup(func() { ts2.Close(); fed.Close() })
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with -pprof", resp.StatusCode)
	}
}

func TestTrafficEndpoint(t *testing.T) {
	ts, fed, joint := testServer(t)
	// Route before the jam.
	var before routeResponse
	getJSON(t, ts.URL+"/route?s=0&t=120", &before)

	// Jam every segment of that route on all silos.
	var changes []trafficChange
	for i := 0; i+1 < len(before.Path); i++ {
		a := fed.Graph().FindArc(before.Path[i], before.Path[i+1])
		for p := 0; p < fed.Silos(); p++ {
			changes = append(changes, trafficChange{Silo: p, Arc: a, TravelMs: 500000})
		}
	}
	body, _ := json.Marshal(changes)
	resp, err := http.Post(ts.URL+"/traffic", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic update status %d", resp.StatusCode)
	}
	var upd struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&upd); err != nil {
		t.Fatal(err)
	}
	if upd.Applied != len(changes) {
		t.Fatalf("applied %d of %d", upd.Applied, len(changes))
	}

	// Consistency after the update: the indexed route equals plaintext
	// Dijkstra on the jammed joint weights.
	for _, c := range changes {
		joint[c.Arc] = int64(fed.Silos()) * c.TravelMs // every silo reports the jam
	}
	var after routeResponse
	getJSON(t, ts.URL+"/route?s=0&t=120", &after)
	want, _ := graph.DijkstraTo(fed.Graph(), joint, 0, 120)
	if got := int64(after.MeanTravelSec*float64(fed.Silos())*1000 + 0.5); got != want {
		t.Fatalf("post-update route costs %d, plaintext %d", got, want)
	}
}

func TestTrafficValidation(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, body := range []string{
		`not json`,
		`[{"silo":99,"arc":0,"travel_ms":1000}]`,
		`[{"silo":0,"arc":999999,"travel_ms":1000}]`,
		`[{"silo":0,"arc":0,"travel_ms":0}]`,
		`[{"silo":-1,"arc":0,"travel_ms":1000}]`,
		`[{"silo":0,"arc":-1,"travel_ms":1000}]`,
		`[{"silo":0,"arc":0,"travel_ms":4294967296}]`, // >= MaxTravelMs: would panic the weight setter
	} {
		resp, err := http.Post(ts.URL+"/traffic", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestTrafficRefreshFaultStatus: a batch whose index refresh fails on a
// faulted silo link answers as a failed query does — 503 or 504 — and
// publishes nothing: the traffic version stays. Resent, the batch applies.
func TestTrafficRefreshFaultStatus(t *testing.T) {
	armed := new(atomic.Bool)
	g, w0 := fedroad.GenerateRoadNetwork(80, 411)
	fed, err := fedroad.New(g, w0, fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 412), fedroad.Config{
		Seed:         413,
		Mode:         fedroad.ModeProtocol,
		RoundTimeout: 150 * time.Millisecond,
		TransportWrap: func(_ int, c transport.Conn) transport.Conn {
			return oneSendFault{Conn: c, armed: armed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(fed, 8, 0, 0).routes())
	defer ts.Close()
	post := func() int {
		body := `[{"silo":0,"arc":3,"travel_ms":777000},{"silo":2,"arc":11,"travel_ms":5}]`
		resp, err := http.Post(ts.URL+"/traffic", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	armed.Store(true)
	if code := post(); code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
		t.Fatalf("a faulted refresh answered %d, want 503 or 504", code)
	}
	if v := fed.TrafficVersion(); v != 0 {
		t.Fatalf("a faulted refresh moved the traffic version to %d", v)
	}
	if code := post(); code != http.StatusOK || fed.TrafficVersion() != 1 {
		t.Fatalf("the batch resent: status %d, version %d", code, fed.TrafficVersion())
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts, fed, _ := testServer(t)
	st := stats(t, ts.URL)
	if int(st["fedroad_graph_vertices"]) != fed.Graph().NumVertices() || st["fedroad_index_present"] != 1 ||
		st["fedroad_index_shortcuts"] == 0 {
		t.Fatalf("bad stats: vertices %v, index %v, shortcuts %v",
			st["fedroad_graph_vertices"], st["fedroad_index_present"], st["fedroad_index_shortcuts"])
	}
	if r := getJSON(t, ts.URL+"/healthz", nil); r.StatusCode != http.StatusOK {
		t.Fatal("healthz failed")
	}
}

// TestStatsReportsIndexBuilding: /stats carries fedroad_index_build_in_progress
// — 0 at rest, observable as 1 while a rebuild runs (the rebuild does not
// block the /stats request), and 0 again once the build returns.
func TestStatsReportsIndexBuilding(t *testing.T) {
	ts, fed, _ := testServer(t)
	read := func() (building, present bool) {
		t.Helper()
		v, ok := stats(t, ts.URL)["fedroad_index_build_in_progress"]
		return v > 0, ok
	}
	if b, ok := read(); !ok || b {
		t.Fatalf("fedroad_index_build_in_progress present=%v building=%v, want present and 0 at rest", ok, b)
	}

	done := make(chan error, 1)
	go func() { done <- fed.BuildIndex() }()
	observed := false
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Whether the flag was caught mid-flight is timing-dependent on
			// fast builds; the rest-state transitions are the contract.
			if b, ok := read(); !ok || b {
				t.Fatalf("building=%v after build returned, want 0", b)
			}
			if !observed {
				t.Log("build finished before /stats observed it in flight (ok)")
			}
			return
		default:
			if b, _ := read(); b {
				observed = true
			}
		}
	}
}

// TestStatsCustomizeBlock: the registry surfaces the contract/customize
// pipeline — skeleton presence, customized-index flag, pass count and the
// published derivation's cost — on /stats and /metrics alike.
func TestStatsCustomizeBlock(t *testing.T) {
	g, w0 := fedroad.GenerateRoadNetwork(120, 41)
	silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 42)
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{Mode: fedroad.ModeIdeal, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	if err := fed.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(fed, 4, 0, 0).routes())
	t.Cleanup(ts.Close)

	for _, m := range []map[string]float64{stats(t, ts.URL), scrape(t, ts.URL)} {
		if m["fedroad_index_present"] != 1 || m["fedroad_index_skeleton_present"] != 1 || m["fedroad_index_customized"] != 1 {
			t.Fatalf("index %v, skeleton %v, customized %v after CustomizeIndex, want 1 each",
				m["fedroad_index_present"], m["fedroad_index_skeleton_present"], m["fedroad_index_customized"])
		}
		ticks, rounds := m["fedroad_index_derivation_ticks"], m["fedroad_index_derivation_mpc_rounds"]
		if m["fedroad_index_customizes_total"] != 1 || ticks <= 0 || rounds != mpc.RoundsPerCompare*ticks {
			t.Fatalf("customizes %v, ticks %v, MPC rounds %v", m["fedroad_index_customizes_total"], ticks, rounds)
		}
		if ticks != m["fedroad_index_customize_ticks_total"] || rounds != m["fedroad_index_customize_mpc_rounds_total"] {
			t.Fatalf("one pass: the published index's %v ticks / %v rounds, the pass totals %v / %v", ticks, rounds,
				m["fedroad_index_customize_ticks_total"], m["fedroad_index_customize_mpc_rounds_total"])
		}
		if m["fedroad_index_customize_seconds_count"] != 1 {
			t.Fatalf("fedroad_index_customize_seconds_count = %v, want 1", m["fedroad_index_customize_seconds_count"])
		}
	}
}

// TestConcurrentRequests: concurrent GET /route requests race POST /traffic
// batches. Every status is 200, and every route is exact at the
// traffic_version it reports.
func TestConcurrentRequests(t *testing.T) {
	ts, fed, _ := testServer(t)
	_, _, silos := testNetwork()
	n := fed.Graph().NumVertices()
	rng := rand.New(rand.NewPCG(34, 0))
	if _, err := scenario.Run(scenario.NewHistory(fed.Graph(), silos, fed.TrafficVersion), scenario.Row{
		Fronts: 20, Queries: 1,
		Front: func(w int) scenario.Front {
			return func(int) (scenario.Answer, error) {
				s, d := fedroad.Vertex(w%n), fedroad.Vertex((w*37)%n)
				resp, err := http.Get(fmt.Sprintf("%s/route?s=%d&t=%d", ts.URL, s, d))
				var r routeResponse
				err = read(resp, err, &r)
				return scenario.Answer{Version: r.TrafficVersion, Src: s, Dst: d, Found: r.Found, Path: r.Path}, err
			}
		},
		Writer: func(int) ([]scenario.Update, error) {
			ups := scenario.Batch(rng, 3, fed.Silos(), fed.Graph().NumArcs(), 1, 120001)
			changes := make([]trafficChange, len(ups))
			for i, u := range ups {
				changes[i] = trafficChange(u)
			}
			body, _ := json.Marshal(changes)
			resp, err := http.Post(ts.URL+"/traffic", "application/json", bytes.NewReader(body))
			return ups, read(resp, err, nil)
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// read decodes a response that must be a 200 into out, unless out is nil.
func read(resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
