package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/admit"
	"repro/internal/ch"
	"repro/internal/metrics"
)

// server wraps a federation behind an HTTP API:
//
//	GET  /route?s=<v>&t=<v>[&estimator=..][&queue=..][&batched=1][&noindex=1]
//	GET  /knn?s=<v>&k=<n>[&queue=..][&batched=1]
//	POST /traffic   body: [{"silo":0,"arc":17,"travel_ms":42000}, ...]
//	GET  /stats
//	GET  /metrics   (Prometheus text exposition)
//	GET  /healthz
//	GET  /debug/pprof/*   (only with -pprof)
//
// Queries run concurrently: each request checks out a query session (a
// private MPC engine fork over the shared federation state) from a pool, so
// N in-flight routes proceed in parallel while the federation's internal
// reader/writer lock keeps traffic updates from ever interleaving with a
// search. A semaphore bounds in-flight queries so a burst cannot pile up
// unbounded goroutines and engine forks.
type server struct {
	fed     *fedroad.Federation
	sem     chan struct{} // bounds in-flight queries
	queries atomic.Int64  // queries served (route + knn)
	pprof   bool          // mount /debug/pprof/* handlers

	// gate is the admission control in front of the semaphore: the semaphore
	// bounds RUNNING queries (and blocks the excess), the gate bounds the
	// whole in-system population (running + queued) and sheds beyond it with
	// 429 + Retry-After instead of letting latency collapse. Always non-nil;
	// with -max-queue 0 it only counts.
	gate *admit.Gate
	// cache, when non-nil (-cache > 0), is the traffic-version-keyed result
	// cache: hits and coalesced waiters skip the gate, the semaphore and the
	// MPC engine entirely.
	cache *fedroad.QueryCache
	// persist, when non-nil (-persist), logs every applied traffic batch to
	// the WAL and owns the snapshot/restore cycle.
	persist *persister
	// unitWeights records that the served graph file carried no weights and
	// travel times were fabricated as 1ms per segment — surfaced in /stats so
	// nobody mistakes routes on a real topology for real ETAs.
	unitWeights bool
	// ewmaQueryMicros tracks a decaying average query latency, the basis of
	// the Retry-After hint on shed responses.
	ewmaQueryMicros atomic.Int64

	// Sessions are reused through an explicit free-list rather than a
	// sync.Pool: a GC'd pool entry would leak its transport endpoints
	// (Close is never called on eviction) and pool entries forked before a
	// federation-level setting change (e.g. SetRealNetworkDelay) would keep
	// serving with stale settings indefinitely. The free-list closes every
	// session it evicts, discards poisoned sessions instead of repooling
	// them, and is drained by (*server).Close.
	mu        sync.Mutex
	free      []*fedroad.Session
	closed    bool
	discarded atomic.Int64 // poisoned sessions destroyed instead of repooled

	// Session-pool and HTTP metrics live in the federation's registry, so
	// GET /metrics exposes the full picture with one scrape.
	mCheckouts *metrics.Counter // sessions handed to queries
	mForks     *metrics.Counter // fresh sessions forked (free-list misses)
	mEvicted   *metrics.Counter // healthy sessions closed (list full / server closed)
	mDiscarded *metrics.Counter // poisoned sessions destroyed
}

// newServer builds a server bounding in-flight queries to maxConcurrent
// (<=0 selects 4×GOMAXPROCS).
func newServer(fed *fedroad.Federation, maxConcurrent int) *server {
	if maxConcurrent <= 0 {
		maxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	s := &server{fed: fed, sem: make(chan struct{}, maxConcurrent)}
	s.setMaxQueue(0)
	reg := fed.Metrics()
	reg.CounterFunc("fedserver_admitted_total", "queries admitted past the admission gate", nil,
		func() float64 { return float64(s.gate.Stats().Admitted) })
	reg.CounterFunc("fedserver_shed_total", "queries shed by the admission gate (429)", nil,
		func() float64 { return float64(s.gate.Stats().Shed) })
	reg.GaugeFunc("fedserver_queue_depth", "queries in the system (running + queued)", nil,
		func() float64 { return float64(s.gate.Stats().Depth) })
	s.mCheckouts = reg.Counter("fedserver_sessions_checked_out_total", "query sessions handed to requests", nil)
	s.mForks = reg.Counter("fedserver_sessions_forked_total", "fresh query sessions forked on free-list miss", nil)
	s.mEvicted = reg.Counter("fedserver_sessions_evicted_total", "healthy sessions closed because the free-list was full or the server closed", nil)
	s.mDiscarded = reg.Counter("fedserver_sessions_discarded_total", "poisoned sessions destroyed instead of repooled", nil)
	reg.GaugeFunc("fedserver_sessions_idle", "sessions currently parked in the free-list", nil,
		func() float64 { return float64(s.pooledIdle()) })
	reg.GaugeFunc("fedserver_max_concurrent", "in-flight query bound", nil,
		func() float64 { return float64(cap(s.sem)) })
	return s
}

// setMaxQueue (re)builds the admission gate: maxQueue > 0 bounds the
// in-system population to maxConcurrent running plus maxQueue queued; 0
// disables shedding (the gate still counts). The gate is prepool-aware: with
// a preprocessing pool configured, a dry pool halves the effective limit,
// shedding earlier exactly when every admitted query is at its slowest.
func (s *server) setMaxQueue(maxQueue int) {
	limit := 0
	if maxQueue > 0 {
		limit = cap(s.sem) + maxQueue
	}
	var poolDepth func() int
	if s.fed.HasPool() {
		fed := s.fed
		poolDepth = func() int { return int(fed.PoolStats().Buffered) }
	}
	s.gate = admit.New(limit, poolDepth)
}

// enableCache installs a traffic-version-keyed result cache of the given
// capacity (entries) and registers its fedroad_cache_* metrics.
func (s *server) enableCache(capacity int) {
	s.cache = s.fed.NewQueryCache(capacity)
}

// checkout takes a session from the free-list, forking a fresh one when the
// list is empty.
func (s *server) checkout() (*fedroad.Session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errServerClosed
	}
	var sess *fedroad.Session
	if n := len(s.free); n > 0 {
		sess = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if sess == nil {
		sess = s.fed.Session()
		s.mForks.Inc()
	}
	s.mCheckouts.Inc()
	return sess, nil
}

// release returns a session to the free-list — unless it is poisoned (its
// MPC engine hit an unrecoverable transport failure: close it and let the
// next request fork a fresh one), the server is closed, or the list is
// already at capacity. Every evicted session is closed, never dropped.
func (s *server) release(sess *fedroad.Session) {
	if sess.Poisoned() {
		s.discarded.Add(1)
		s.mDiscarded.Inc()
		sess.Close()
		return
	}
	s.mu.Lock()
	if !s.closed && len(s.free) < cap(s.sem) {
		s.free = append(s.free, sess)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.mEvicted.Inc()
	sess.Close()
}

// Close drains the free-list, closing every pooled session. In-flight
// sessions are closed by release when their query finishes.
func (s *server) Close() {
	s.mu.Lock()
	free := s.free
	s.free = nil
	s.closed = true
	s.mu.Unlock()
	for _, sess := range free {
		sess.Close()
	}
}

// withSession admits the request, bounds concurrency and runs fn on a pooled
// query session, returning fn's error. The gate is taken BEFORE the
// semaphore: a shed request never blocks, and the gate's depth counts both
// the queued (blocked on sem) and the running. On the cached path this runs
// inside the flight leader's closure, so cache hits and coalesced waiters
// consume no admission slot.
func (s *server) withSession(fn func(*fedroad.Session) error) error {
	if err := s.gate.Acquire(); err != nil {
		return err
	}
	defer s.gate.Release()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	sess, err := s.checkout()
	if err != nil {
		return err
	}
	s.queries.Add(1)
	start := time.Now()
	err = fn(sess)
	s.observeLatency(time.Since(start))
	s.release(sess)
	return err
}

// observeLatency folds one query's wall time into the decaying average
// behind Retry-After (EWMA, alpha 1/8; lossy racing updates are fine for a
// hint).
func (s *server) observeLatency(d time.Duration) {
	us := d.Microseconds()
	old := s.ewmaQueryMicros.Load()
	if old == 0 {
		s.ewmaQueryMicros.Store(us)
		return
	}
	s.ewmaQueryMicros.Store(old + (us-old)/8)
}

// retryAfterSec estimates when a shed client should retry: the current
// backlog divided by the service rate, clamped to [1s, 30s].
func (s *server) retryAfterSec() int {
	depth := s.gate.Stats().Depth
	ewma := s.ewmaQueryMicros.Load()
	sec := int(depth * ewma / int64(cap(s.sem)) / 1e6)
	if sec < 1 {
		return 1
	}
	if sec > 30 {
		return 30
	}
	return sec
}

// writeQueryError renders a query error, attaching the Retry-After hint to
// shed responses.
func (s *server) writeQueryError(w http.ResponseWriter, err error) {
	code := queryStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec()))
	}
	httpError(w, code, err)
}

// errServerClosed is returned by checkout after Close.
var errServerClosed = errors.New("server closed")

// queryStatus maps a query error to an HTTP status: a round timeout means a
// slow or dead silo (504); any other unrecoverable transport failure means
// the session died mid-protocol (503, and the session has been discarded —
// retrying on a fresh session may succeed); a request-level mistake (bad
// option combination, vertex out of range) is tagged ErrInvalidQuery by the
// library (400). Everything else — e.g. an engine-construction failure after
// a config change — is an internal server error, NOT the client's fault
// (500).
func queryStatus(err error) int {
	switch {
	case errors.Is(err, admit.ErrShed):
		return http.StatusTooManyRequests
	case fedroad.IsTimeout(err):
		return http.StatusGatewayTimeout
	case errors.Is(err, fedroad.ErrSessionPoisoned), errors.Is(err, errServerClosed),
		errors.Is(err, fedroad.ErrPeerDown):
		// ErrPeerDown normally reaches callers wrapped in ErrSessionPoisoned
		// (the engine poisons fast on a dead link), but a raw mesh error —
		// e.g. a session dial racing a redial — maps the same way: the
		// federation is temporarily degraded, retry on a fresh session.
		return http.StatusServiceUnavailable
	case errors.Is(err, fedroad.ErrInvalidQuery):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusWriter captures the response status for request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a handler with per-endpoint request counting (by status
// class) and a latency histogram.
func (s *server) instrumented(path string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.fed.Metrics()
	lat := reg.Histogram("fedserver_http_request_seconds", "HTTP request latency by endpoint", nil,
		metrics.Labels{"path": path})
	byClass := make(map[int]*metrics.Counter)
	for _, class := range []int{2, 4, 5} {
		byClass[class] = reg.Counter("fedserver_http_requests_total", "HTTP requests by endpoint and status class",
			metrics.Labels{"path": path, "code": fmt.Sprintf("%dxx", class)})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		if c, ok := byClass[sw.status/100]; ok {
			c.Inc()
		}
	}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /route", s.instrumented("/route", s.handleRoute))
	mux.HandleFunc("GET /knn", s.instrumented("/knn", s.handleKNN))
	mux.HandleFunc("POST /traffic", s.instrumented("/traffic", s.handleTraffic))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// queryCost is the per-query cost block shared by /route (inlined) and /knn
// (one aggregate for the whole Fed-SSSP run). Every field is a measurement
// of the actual query — fabricating zeros is exactly the bug this struct's
// split replaced.
type queryCost struct {
	FedSACs        int64 `json:"fed_sacs"`
	MPCRounds      int64 `json:"mpc_rounds"`
	MPCBytes       int64 `json:"mpc_bytes"`
	SettledVerts   int   `json:"settled_vertices"`
	HeuristicEvals int   `json:"heuristic_evals"`
	LocalMicros    int64 `json:"local_us"`
	QueueMicros    int64 `json:"queue_us"`
	SACWaitMicros  int64 `json:"sac_wait_us"`
	RelaxMicros    int64 `json:"relax_us"`
	NetworkMicros  int64 `json:"simulated_network_us"`
}

func costOf(stats fedroad.Stats) queryCost {
	return queryCost{
		FedSACs:        stats.SAC.Compares,
		MPCRounds:      stats.SAC.Rounds,
		MPCBytes:       stats.SAC.Bytes,
		SettledVerts:   stats.SettledVertices,
		HeuristicEvals: stats.HeuristicEvals,
		LocalMicros:    stats.WallTime.Microseconds(),
		QueueMicros:    stats.Phases.Queue.Microseconds(),
		SACWaitMicros:  stats.Phases.SACWait.Microseconds(),
		RelaxMicros:    stats.Phases.Relax.Microseconds(),
		NetworkMicros:  stats.SAC.SimNet.Microseconds(),
	}
}

type routeResponse struct {
	Found         bool             `json:"found"`
	Path          []fedroad.Vertex `json:"path,omitempty"`
	Segments      int              `json:"segments"`
	MeanTravelSec float64          `json:"mean_travel_sec"`
	// TrafficVersion is the traffic version the answer was computed at,
	// captured under the query's own read lock — the anchor for staleness
	// checks. Cached ("hit", "miss", "coalesced") is set when the result
	// cache is enabled; on hits the cost block replays the computing query's
	// counters (this request spent none).
	TrafficVersion uint64 `json:"traffic_version"`
	Cached         string `json:"cached,omitempty"`
	queryCost
}

// knnNeighbor is one kNN result: route fields only. Per-query cost counters
// live once in knnResponse.Stats — a per-neighbor breakdown does not exist
// (the k routes come out of ONE Fed-SSSP run), so none is reported.
type knnNeighbor struct {
	Found         bool             `json:"found"`
	Path          []fedroad.Vertex `json:"path,omitempty"`
	Segments      int              `json:"segments"`
	MeanTravelSec float64          `json:"mean_travel_sec"`
}

type knnResponse struct {
	Results        []knnNeighbor `json:"results"`
	Stats          queryCost     `json:"stats"`
	TrafficVersion uint64        `json:"traffic_version"`
	Cached         string        `json:"cached,omitempty"`
}

func (s *server) vertexParam(r *http.Request, name string) (fedroad.Vertex, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v >= s.fed.Graph().NumVertices() {
		return 0, fmt.Errorf("parameter %q out of range [0,%d)", name, s.fed.Graph().NumVertices())
	}
	return fedroad.Vertex(v), nil
}

func queryOptions(r *http.Request) fedroad.QueryOptions {
	q := r.URL.Query()
	opt := fedroad.QueryOptions{
		Estimator:  fedroad.Estimator(q.Get("estimator")),
		Queue:      fedroad.QueueKind(q.Get("queue")),
		NoIndex:    q.Get("noindex") == "1",
		BatchedMPC: q.Get("batched") == "1",
	}
	return opt
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	src, err := s.vertexParam(r, "s")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	dst, err := s.vertexParam(r, "t")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opt := queryOptions(r)
	run := func() (fedroad.Route, fedroad.Stats, uint64, error) {
		var route fedroad.Route
		var stats fedroad.Stats
		var ver uint64
		err := s.withSession(func(sess *fedroad.Session) error {
			var qerr error
			route, stats, ver, qerr = sess.ShortestPathAt(src, dst, opt)
			return qerr
		})
		return route, stats, ver, err
	}
	var route fedroad.Route
	var stats fedroad.Stats
	var ver uint64
	var cached string
	if s.cache != nil {
		var out fedroad.CacheOutcome
		route, stats, ver, out, err = s.cache.ShortestPath(src, dst, opt, run)
		cached = out.String()
	} else {
		route, stats, ver, err = run()
	}
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	resp := s.toResponse(route, stats)
	resp.TrafficVersion = ver
	resp.Cached = cached
	writeJSON(w, resp)
}

func (s *server) toResponse(route fedroad.Route, stats fedroad.Stats) routeResponse {
	resp := routeResponse{queryCost: costOf(stats)}
	resp.Found = route.Found
	if route.Found {
		resp.Path = route.Path
		resp.Segments = len(route.Path) - 1
		resp.MeanTravelSec = float64(fedroad.JointCost(route)) / float64(s.fed.Silos()) / 1000
	}
	return resp
}

// toNeighbor renders one kNN route without any cost fields.
func (s *server) toNeighbor(route fedroad.Route) knnNeighbor {
	n := knnNeighbor{Found: route.Found}
	if route.Found {
		n.Path = route.Path
		n.Segments = len(route.Path) - 1
		n.MeanTravelSec = float64(fedroad.JointCost(route)) / float64(s.fed.Silos()) / 1000
	}
	return n
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	src, err := s.vertexParam(r, "s")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 || k > s.fed.Graph().NumVertices() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parameter k out of range"))
		return
	}
	opt := queryOptions(r)
	run := func() ([]fedroad.Route, fedroad.Stats, uint64, error) {
		var routes []fedroad.Route
		var stats fedroad.Stats
		var ver uint64
		err := s.withSession(func(sess *fedroad.Session) error {
			var qerr error
			routes, stats, ver, qerr = sess.NearestNeighborsAt(src, k, opt)
			return qerr
		})
		return routes, stats, ver, err
	}
	var routes []fedroad.Route
	var stats fedroad.Stats
	var ver uint64
	var cached string
	if s.cache != nil {
		var co fedroad.CacheOutcome
		routes, stats, ver, co, err = s.cache.NearestNeighbors(src, k, opt, run)
		cached = co.String()
	} else {
		routes, stats, ver, err = run()
	}
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// One Fed-SSSP run produced all k routes; its cost is reported once, not
	// fabricated per neighbor.
	out := knnResponse{Results: make([]knnNeighbor, len(routes)), Stats: costOf(stats),
		TrafficVersion: ver, Cached: cached}
	for i, rt := range routes {
		out.Results[i] = s.toNeighbor(rt)
	}
	writeJSON(w, out)
}

type trafficChange struct {
	Silo     int         `json:"silo"`
	Arc      fedroad.Arc `json:"arc"`
	TravelMs int64       `json:"travel_ms"`
}

func (s *server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	var changes []trafficChange
	if err := json.NewDecoder(r.Body).Decode(&changes); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid body: %w", err))
		return
	}
	// Validate everything before taking any lock so malformed requests get a
	// 400 without ever touching federation state (silo/arc out of range or a
	// travel time outside (0, MaxTravelMs) would otherwise panic deep in the
	// weight setter).
	numArcs := s.fed.Graph().NumArcs()
	updates := make([]fedroad.TrafficUpdate, len(changes))
	for i, c := range changes {
		if c.Silo < 0 || c.Silo >= s.fed.Silos() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("silo %d out of range", c.Silo))
			return
		}
		if c.Arc < 0 || int(c.Arc) >= numArcs {
			httpError(w, http.StatusBadRequest, fmt.Errorf("arc %d out of range", c.Arc))
			return
		}
		if c.TravelMs < 1 || c.TravelMs >= fedroad.MaxTravelMs {
			httpError(w, http.StatusBadRequest, fmt.Errorf("travel_ms %d outside (0,%d)", c.TravelMs, fedroad.MaxTravelMs))
			return
		}
		updates[i] = fedroad.TrafficUpdate{Silo: c.Silo, Arc: c.Arc, TravelMs: c.TravelMs}
	}
	start := time.Now()
	hadIndex := s.fed.HasIndex()
	stats, err := s.applyTraffic(updates)
	if err != nil {
		// Validation re-runs inside ApplyTraffic and tags its rejections
		// with ErrInvalidUpdate — those are the client's fault. Anything
		// else (a shortcut-index refresh failure after the weights were
		// already validated) is an internal server failure.
		code := http.StatusInternalServerError
		if errors.Is(err, fedroad.ErrInvalidUpdate) {
			code = http.StatusBadRequest
		}
		httpError(w, code, err)
		return
	}
	var updated any
	if hadIndex {
		updated = struct {
			ChangedArcs int   `json:"changed_arcs"`
			Reverified  int   `json:"reverified_vertices"`
			Added       int   `json:"added_shortcuts"`
			FedSACs     int64 `json:"fed_sacs"`
			Micros      int64 `json:"update_us"`
		}{stats.ChangedArcs, stats.ReverifiedVertices, stats.AddedShortcuts,
			stats.SAC.Compares, time.Since(start).Microseconds()}
	}
	writeJSON(w, struct {
		Applied int `json:"applied"`
		Index   any `json:"index_update,omitempty"`
	}{len(changes), updated})
}

// applyTraffic routes a traffic batch through the persister when -persist is
// on (apply + durable WAL append under one mutex) and straight to the
// federation otherwise.
func (s *server) applyTraffic(updates []fedroad.TrafficUpdate) (ch.UpdateStats, error) {
	if s.persist != nil {
		return s.persist.Apply(updates)
	}
	return s.fed.ApplyTraffic(updates)
}

// pooledIdle reports how many sessions sit in the free-list right now.
func (s *server) pooledIdle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// cacheStatsJSON is the /stats cache block.
type cacheStatsJSON struct {
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Coalesced       uint64 `json:"coalesced"`
	EvictedCapacity uint64 `json:"evicted_capacity"`
	EvictedStale    uint64 `json:"evicted_stale"`
	Entries         int    `json:"entries"`
}

// admitStatsJSON is the /stats admission block.
type admitStatsJSON struct {
	Limit    int64 `json:"limit"` // 0 = shedding disabled
	Depth    int64 `json:"queue_depth"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// meshLinkJSON is one endpoint→peer link's /stats entry.
type meshLinkJSON struct {
	Party           int   `json:"party"`
	Peer            int   `json:"peer"`
	Up              bool  `json:"up"`
	Reconnects      int64 `json:"reconnects"`
	HeartbeatMisses int64 `json:"heartbeat_misses"`
	DialFailures    int64 `json:"dial_failures"`
	BytesSent       int64 `json:"bytes_sent"`
	BytesRecv       int64 `json:"bytes_recv"`
}

// meshStatsJSON is the /stats mesh-transport block (only present with
// -mesh-tcp).
type meshStatsJSON struct {
	LinksUp         int            `json:"links_up"`
	Reconnects      int64          `json:"reconnects"`
	HeartbeatMisses int64          `json:"heartbeat_misses"`
	BytesSent       int64          `json:"bytes_sent"`
	MessagesSent    int64          `json:"messages_sent"`
	Links           []meshLinkJSON `json:"links"`
}

// meshBlock renders the federation's mesh counters, or nil without a mesh.
func (s *server) meshBlock() *meshStatsJSON {
	stats := s.fed.MeshStats()
	if stats == nil {
		return nil
	}
	out := &meshStatsJSON{}
	for _, ep := range stats {
		out.LinksUp += ep.LinksUp
		out.Reconnects += ep.Reconnects
		out.HeartbeatMisses += ep.HeartbeatMisses
		out.BytesSent += ep.BytesSent
		out.MessagesSent += ep.MsgsSent
		for _, p := range ep.Peers {
			out.Links = append(out.Links, meshLinkJSON{
				Party: ep.Party, Peer: p.Peer, Up: p.Up,
				Reconnects: p.Reconnects, HeartbeatMisses: p.HeartbeatMisses,
				DialFailures: p.DialFailures,
				BytesSent:    p.BytesSent, BytesRecv: p.BytesRecv,
			})
		}
	}
	return out
}

// customizeStatsJSON is the /stats view of the contract-once /
// customize-per-metric pipeline: whether a topology skeleton is available,
// whether the serving index came out of a customization sweep, and the
// latency / MPC-round cost of the most recent pass.
type customizeStatsJSON struct {
	HasSkeleton     bool  `json:"has_skeleton"`
	IndexCustomized bool  `json:"index_customized"`
	Passes          int64 `json:"passes"`
	LastWallMs      int64 `json:"last_wall_ms"`
	LastMPCRounds   int64 `json:"last_mpc_rounds"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.fed.IndexStats()
	ci := s.fed.CustomizeInfo()
	custBlock := customizeStatsJSON{
		HasSkeleton:     s.fed.HasSkeleton(),
		IndexCustomized: st.Customized,
		Passes:          ci.Customizes,
		LastWallMs:      ci.LastWallMs,
		LastMPCRounds:   ci.LastMPCRounds,
	}
	pool := s.fed.PoolStats()
	gs := s.gate.Stats()
	var cacheBlock *cacheStatsJSON
	if s.cache != nil {
		cs := s.cache.Stats()
		cacheBlock = &cacheStatsJSON{
			Hits: cs.Hits, Misses: cs.Misses, Coalesced: cs.Coalesced,
			EvictedCapacity: cs.EvictedCapacity, EvictedStale: cs.EvictedStale,
			Entries: cs.Entries,
		}
	}
	var persistBlock *persistStats
	if s.persist != nil {
		ps := s.persist.Stats()
		persistBlock = &ps
	}
	writeJSON(w, struct {
		Vertices       int                `json:"vertices"`
		Arcs           int                `json:"arcs"`
		Silos          int                `json:"silos"`
		HasIndex       bool               `json:"has_index"`
		IndexBuilding  bool               `json:"index_building"`
		Shortcuts      int                `json:"shortcuts"`
		BuildSACs      int64              `json:"build_fed_sacs"`
		Customize      customizeStatsJSON `json:"customize"`
		TrafficVersion uint64             `json:"traffic_version"`
		UnitWeights    bool               `json:"unit_weights"`
		QueriesServed  int64              `json:"queries_served"`
		MaxConcurrent  int                `json:"max_concurrent"`
		Admission      admitStatsJSON     `json:"admission"`
		Cache          *cacheStatsJSON    `json:"cache,omitempty"`
		Persist        *persistStats      `json:"persist,omitempty"`
		Mesh           *meshStatsJSON     `json:"mesh,omitempty"`
		PooledIdle     int                `json:"pooled_sessions"`
		Discarded      int64              `json:"poisoned_sessions_discarded"`
		PoolProduced   int64              `json:"prepool_produced"` // prepool_*: 64-lane blocks
		PoolHits       int64              `json:"prepool_hits"`
		PoolMisses     int64              `json:"prepool_misses"`
		Metrics        map[string]float64 `json:"metrics"`
	}{
		s.fed.Graph().NumVertices(), s.fed.Graph().NumArcs(), s.fed.Silos(),
		s.fed.HasIndex(), s.fed.IndexBuilding(), st.Shortcuts, st.SAC.Compares,
		custBlock,
		s.fed.TrafficVersion(), s.unitWeights,
		s.queries.Load(), cap(s.sem),
		admitStatsJSON{Limit: gs.Limit, Depth: gs.Depth, Admitted: gs.Admitted, Shed: gs.Shed},
		cacheBlock, persistBlock, s.meshBlock(),
		s.pooledIdle(), s.discarded.Load(),
		pool.Produced, pool.Hits, pool.Misses,
		s.fed.Metrics().Snapshot(),
	})
}

// handleMetrics serves the federation registry in Prometheus text exposition
// format (version 0.0.4). Everything — MPC counters, per-kind query metrics,
// session-pool and HTTP metrics — lives in the one registry.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.fed.Metrics().WriteText(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
