package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	fedroad "repro"
	"repro/internal/ch"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// server wraps a federation behind an HTTP API:
//
//	GET  /route?s=<v>&t=<v>
//	GET  /knn?s=<v>&k=<n>
//	POST /traffic   body: [{"silo":0,"arc":17,"travel_ms":42000}, ...]
//	GET  /stats
//	GET  /metrics   (Prometheus text exposition)
//	GET  /healthz
//	GET  /debug/pprof/*   (only with -pprof)
//
// The query handlers decode the request, call the serving pipeline
// (internal/serve: cache, admission, concurrency bound, a session per
// request) and encode its answer; the federation's reader/writer lock keeps
// traffic updates from ever interleaving with a search.
type server struct {
	fed   *fedroad.Federation
	pipe  *serve.Pipeline
	pprof bool // mount /debug/pprof/* handlers

	// persist, when non-nil (-persist), logs every applied traffic batch to
	// the WAL and owns the snapshot/restore cycle.
	persist *persister
	// unitWeights records that the served graph file carried no weights and
	// travel times were fabricated as 1ms per segment — surfaced in /stats so
	// nobody mistakes routes on a real topology for real ETAs.
	unitWeights bool
}

// newServer builds a server over fed and a pipeline sized by -max-concurrent,
// -max-queue and -cache (see serve.New for the zero values).
func newServer(fed *fedroad.Federation, maxConcurrent, maxQueue, cacheEntries int) *server {
	return &server{fed: fed, pipe: serve.New(fed, maxConcurrent, maxQueue, cacheEntries)}
}

// writeQueryError renders a query error, attaching the Retry-After hint to
// shed responses.
func (s *server) writeQueryError(w http.ResponseWriter, err error) {
	code := queryStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.pipe.RetryAfterSec()))
	}
	httpError(w, code, err)
}

// queryStatus maps a query error to an HTTP status: a round timeout means a
// slow or dead silo (504); any other unrecoverable transport failure means
// the request's session died mid-protocol (503 — the next request opens a
// fresh session and may succeed); a request-level mistake (vertex out of
// range) is tagged ErrInvalidQuery by the library (400). Everything else —
// e.g. an engine-construction failure after a config change — is an internal
// server error, NOT the client's fault (500).
func queryStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrShed):
		return http.StatusTooManyRequests
	case fedroad.IsTimeout(err):
		return http.StatusGatewayTimeout
	case errors.Is(err, fedroad.ErrSessionPoisoned), errors.Is(err, fedroad.ErrPeerDown):
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

// routeJSON is one route: route fields only. Cost counters belong to the
// query, not the route — the k routes of a kNN answer come out of ONE
// Fed-SSSP run — so they live beside it (routeResponse's inlined queryCost,
// knnResponse.Stats), never per neighbor.
type routeJSON struct {
	Found         bool             `json:"found"`
	Path          []fedroad.Vertex `json:"path,omitempty"`
	Segments      int              `json:"segments"`
	MeanTravelSec float64          `json:"mean_travel_sec"`
}

type routeResponse struct {
	routeJSON
	// TrafficVersion is the traffic version the answer was computed at,
	// captured under the query's own read lock — the anchor for staleness
	// checks. Cached ("hit", "miss", "coalesced") is set when the result
	// cache is enabled; on hits the cost block replays the computing query's
	// counters (this request spent none).
	TrafficVersion uint64 `json:"traffic_version"`
	Cached         string `json:"cached,omitempty"`
	queryCost
}

type knnResponse struct {
	Results        []routeJSON `json:"results"`
	Stats          queryCost   `json:"stats"`
	TrafficVersion uint64      `json:"traffic_version"`
	Cached         string      `json:"cached,omitempty"`
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

// cachedLabel renders a cache outcome for the response; empty (omitted)
// when the pipeline has no cache.
func (s *server) cachedLabel(out fedroad.CacheOutcome) string {
	if !s.pipe.HasCache() {
		return ""
	}
	return out.String()
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
	route, meta, err := s.pipe.Route(src, dst)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, routeResponse{
		routeJSON:      s.renderRoute(route),
		TrafficVersion: meta.Version,
		Cached:         s.cachedLabel(meta.Outcome),
		queryCost:      costOf(meta.Stats),
	})
}

// renderRoute renders one route without any cost fields.
func (s *server) renderRoute(route fedroad.Route) routeJSON {
	n := routeJSON{Found: route.Found}
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
	routes, meta, err := s.pipe.KNN(src, k)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// One Fed-SSSP run produced all k routes; its cost is reported once, not
	// fabricated per neighbor.
	out := knnResponse{Results: make([]routeJSON, len(routes)), Stats: costOf(meta.Stats),
		TrafficVersion: meta.Version, Cached: s.cachedLabel(meta.Outcome)}
	for i, rt := range routes {
		out.Results[i] = s.renderRoute(rt)
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
// latency / tick / MPC-round cost of the most recent pass.
type customizeStatsJSON struct {
	HasSkeleton     bool  `json:"has_skeleton"`
	IndexCustomized bool  `json:"index_customized"`
	Passes          int64 `json:"passes"`
	LastWallMs      int64 `json:"last_wall_ms"`
	LastMPCRounds   int64 `json:"last_mpc_rounds"`
	LastTicks       int64 `json:"last_ticks"`
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
		LastTicks:       ci.LastTicks,
	}
	pool := s.fed.PoolStats()
	pipe := s.pipe.Stats()
	gs := pipe.Admission
	var cacheBlock *cacheStatsJSON
	if cs := pipe.Cache; cs != nil {
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
		PoolProduced   int64              `json:"prepool_produced"` // prepool_*: 64-lane blocks
		PoolHits       int64              `json:"prepool_hits"`
		PoolMisses     int64              `json:"prepool_misses"`
		Metrics        map[string]float64 `json:"metrics"`
	}{
		s.fed.Graph().NumVertices(), s.fed.Graph().NumArcs(), s.fed.Silos(),
		s.fed.HasIndex(), s.fed.IndexBuilding(), st.Shortcuts, st.SAC.Compares,
		custBlock,
		s.fed.TrafficVersion(), s.unitWeights,
		gs.Admitted, pipe.MaxConcurrent,
		admitStatsJSON{Limit: gs.Limit, Depth: gs.Depth, Admitted: gs.Admitted, Shed: gs.Shed},
		cacheBlock, persistBlock, s.meshBlock(),
		pool.Produced, pool.Hits, pool.Misses,
		s.fed.Metrics().Snapshot(),
	})
}

// handleMetrics serves the federation registry in Prometheus text exposition
// format (version 0.0.4). Everything — MPC counters, per-kind query metrics,
// admission, cache and HTTP metrics — lives in the one registry.
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
