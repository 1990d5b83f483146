// Package fedroad is a from-scratch reproduction of "FedRoad: Secure and
// Efficient Road Network Queries over Traffic Data Federation" (ICDE 2025):
// a traffic data federation in which P autonomous silos share a road-network
// topology, keep their travel-time observations private, and collaboratively
// answer shortest-path queries on the imaginary weighted joint road network
// whose edge weights average the silos' observations.
//
// The only cross-silo primitive is Fed-SAC, a secret-sharing-based secure
// sum-and-compare operator: silos learn which of two joint path costs is
// smaller and nothing else. On top of it the library provides:
//
//   - Fed-SSSP / Fed-SPSP: federated Dijkstra, bidirectional and A* search
//     (paper §II);
//   - the federated shortcut index: a contraction hierarchy with consistent
//     shortcut sets and private partial shortcut weights, including dynamic
//     partial updates (§IV);
//   - the federated lower bound Fed-AMPS for A* pruning (§V; the landmark
//     bounds the paper compares it with are reproduced by cmd/fedbench);
//   - the TM-tree, a comparison-optimized priority queue (§VI).
//
// Quick start:
//
//	g, w0 := fedroad.GenerateRoadNetwork(2000, 42)
//	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 7)
//	f, _ := fedroad.New(g, w0, silos)
//	_ = f.BuildIndex()
//	route, stats, _ := f.ShortestPath(12, 1780)
//	fmt.Println(route.Path, stats.SAC.Compares)
//
// The packages under internal/ hold the implementation; see DESIGN.md for
// the architecture and EXPERIMENTS.md for the reproduced evaluation.
package fedroad

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// Re-exported graph vocabulary.
type (
	// Graph is the shared road-network topology.
	Graph = graph.Graph
	// Vertex identifies a road junction.
	Vertex = graph.Vertex
	// Arc identifies a directed road segment.
	Arc = graph.Arc
	// Weights is a per-arc travel-time set (milliseconds).
	Weights = graph.Weights
	// CongestionLevel parameterizes the traffic model.
	CongestionLevel = traffic.Level
)

// The paper's congestion levels (§VIII-A).
var (
	Free     = traffic.Free
	Slight   = traffic.Slight
	Moderate = traffic.Moderate
	Heavy    = traffic.Heavy
)

// GenerateRoadNetwork produces an irregular road-like network with n
// junctions and its public free-flow weight set W0. Deterministic in seed.
func GenerateRoadNetwork(n int, seed uint64) (*Graph, Weights) {
	return graph.GenerateRoadLike(n, seed)
}

// GenerateGridNetwork produces a Manhattan-style network with a road
// hierarchy. Deterministic in seed.
func GenerateGridNetwork(rows, cols int, seed uint64) (*Graph, Weights) {
	return graph.GenerateGrid(rows, cols, seed)
}

// NewGraphBuilder starts a custom topology with n vertices.
func NewGraphBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// LoadGraph parses a DIMACS-like road network (see graph.ReadFrom).
func LoadGraph(r io.Reader) (*Graph, Weights, error) { return graph.ReadFrom(r) }

// SaveGraph writes a road network in the same format.
func SaveGraph(w io.Writer, g *Graph, weights Weights) error {
	return graph.WriteTo(w, g, weights)
}

// LoadGraphFile loads a road network from a file, auto-detecting the binary
// snapshot format (cmd/import-dimacs output) versus the text format.
func LoadGraphFile(path string) (*Graph, Weights, error) { return graph.LoadFile(path) }

// LoadGraphBinary parses a binary graph snapshot (see graph.ReadBinary).
func LoadGraphBinary(r io.Reader) (*Graph, Weights, error) { return graph.ReadBinary(r) }

// SaveGraphBinary writes a road network as a binary snapshot — the fast,
// memory-lean load path for continent-scale networks.
func SaveGraphBinary(w io.Writer, g *Graph, weights Weights) error {
	return graph.WriteBinary(w, g, weights)
}

// SimulateCongestion derives p private silo weight sets from the static
// weights under a congestion level (the paper's evaluation traffic model).
func SimulateCongestion(w0 Weights, p int, lvl CongestionLevel, seed uint64) []Weights {
	return traffic.SiloWeights(w0, p, lvl, seed)
}

// ExecutionMode selects how Fed-SAC runs.
type ExecutionMode int

const (
	// ModeIdeal evaluates comparisons directly with exact analytic cost
	// accounting (calibrated against the real protocol) — the default for
	// experiments.
	ModeIdeal ExecutionMode = iota
	// ModeProtocol runs the full secret-sharing MPC protocol between
	// in-process party goroutines for every comparison.
	ModeProtocol
)

// Config tunes a federation. The zero value gives the paper's defaults.
type Config struct {
	Mode ExecutionMode
	Seed uint64

	// PreprocessPool, when positive, starts a background preprocessing pool
	// holding up to this many comparisons' correlated randomness — buffered
	// as ⌈PreprocessPool/64⌉ 64-lane blocks, the unit PoolStats counts —
	// generated ahead of demand so protocol-mode queries rarely pay the
	// offline phase on the critical path. Call Close to release the pool's
	// workers.
	PreprocessPool int
	// PreprocessWorkers is the number of pool replenisher goroutines
	// (default 1; only meaningful with PreprocessPool > 0).
	PreprocessWorkers int

	// RoundTimeout bounds how long any silo waits for a single protocol
	// frame (protocol mode; 0 = wait forever). With it set, a slow or dead
	// silo degrades a query into a clean wrapped error within roughly
	// rounds×RoundTimeout instead of hanging the session forever.
	RoundTimeout time.Duration
	// SACRetries re-runs a Fed-SAC protocol round up to this many times
	// after a transient transport failure (timeout or injected fault) before
	// declaring the session's engine unusable. Default 0: fail on first
	// error.
	SACRetries int
	// SACRetryBackoff is the sleep before the first retry, doubled per
	// retry. Zero retries immediately.
	SACRetryBackoff time.Duration

	// TransportWrap, when set, wraps every MPC transport endpoint the
	// federation and its sessions create. This is the chaos-testing hook:
	// install transport.NewFaultConn here to drive queries through dropped,
	// delayed, duplicated and killed links. Production configs leave it nil.
	TransportWrap func(party int, c transport.Conn) transport.Conn

	// MeshTCP routes every session's MPC rounds over a real loopback TCP
	// mesh with multiplexed lanes (protocol mode only): exactly P−1 physical
	// sockets per silo endpoint, one fresh lane set per session fork, with
	// heartbeat failure detection and automatic redial. This is the
	// deployment-shaped wire path — every secret share crosses an actual
	// socket — at the cost of real syscall latency per round.
	MeshTCP bool
	// MeshTLS enables mutual-auth TLS on the mesh links (requires MeshTCP).
	// See transport.TLSConfig; all three file paths must be set.
	MeshTLS *TLSConfig
}

// TLSConfig re-exports the transport layer's mutual-auth TLS configuration
// (certificate, key and federation-CA PEM paths).
type TLSConfig = transport.TLSConfig

// GenerateTestCerts writes a throwaway federation PKI (self-signed CA plus
// one certificate per silo) into dir — the self-signed quickstart for local
// mTLS meshes. Production deployments bring their own CA.
func GenerateTestCerts(dir string, silos int) error {
	return transport.GenerateTestCerts(dir, silos)
}

// TestCertConfig returns the TLSConfig for one silo under a
// GenerateTestCerts directory.
func TestCertConfig(dir string, silo int) *TLSConfig {
	return transport.TestCertConfig(dir, silo)
}

// MeshStats re-exports one mesh endpoint's per-peer link and traffic
// counters (see Federation.MeshStats).
type MeshStats = transport.MeshStats

// ErrInvalidUpdate tags traffic updates rejected by validation (a client
// mistake: silo/arc out of range, travel time outside bounds). Errors from
// ApplyTraffic that do NOT wrap ErrInvalidUpdate are internal failures (e.g.
// a shortcut-index refresh error) — servers should map the former to 4xx and
// the latter to 5xx.
var ErrInvalidUpdate = errors.New("fedroad: invalid traffic update")

// ErrSessionPoisoned tags query errors from a session whose MPC engine
// suffered an unrecoverable transport failure. The session must be closed
// and replaced; the federation itself remains healthy and fresh sessions
// work. Check with errors.Is.
var ErrSessionPoisoned = mpc.ErrPoisoned

// ErrPeerDown tags transport errors caused by a dead inter-silo link (the
// mesh's heartbeat monitor declared the peer unreachable, or redial has not
// yet succeeded). It is deliberately not retryable at the protocol-round
// level — in-flight rounds on a dead link are unrecoverable — so it surfaces
// wrapped in ErrSessionPoisoned; fresh sessions transparently use the
// redialed link once the peer returns. Check with errors.Is.
var ErrPeerDown = transport.ErrPeerDown

// ErrBuildConflict tags an index build abandoned because traffic updates
// changed the silo weights after the build snapshotted them: the finished
// index would describe stale weights, so it is discarded instead of swapped
// in. Set IndexParams.RebuildOnConflict to retry from fresh weights
// automatically, or catch this error (errors.Is) and re-invoke
// BuildIndexWith when the update rate allows. A previously built index, if
// any, keeps serving queries.
var ErrBuildConflict = errors.New("fedroad: index build conflicted with a concurrent traffic update")

// ErrInvalidQuery tags query errors caused by the request itself: vertices
// outside the graph, a non-positive k, or more than one QueryOptions. Servers
// should map these to 4xx; query errors NOT wrapping ErrInvalidQuery (or
// ErrSessionPoisoned / a timeout) are internal failures and belong in the 5xx
// class. Check with errors.Is.
var ErrInvalidQuery = errors.New("fedroad: invalid query")

// IsTimeout reports whether a query error stems from the configured
// per-round timeout (or a socket deadline) expiring — the signature of a
// slow or dead silo, as opposed to a bad request.
func IsTimeout(err error) bool { return transport.IsTimeout(err) }

// Federation is the top-level handle: the shared topology, the private
// silos, the MPC engine and (once built) the pre-computed structures.
//
// A Federation is safe for concurrent use. Queries (ShortestPath,
// NearestNeighbors, and every query issued through a Session) take a read
// lock and run on a private MPC engine fork, so any number of them proceed
// in parallel; the one traffic mutator, ApplyTraffic, takes the write lock
// and therefore never interleaves with a search. Index derivations do their
// heavy work OFF the lock — they snapshot the silo weights under a read lock,
// compute unlocked, and swap the result in under a brief write lock — so
// queries and traffic updates keep flowing during a (re)build. See DESIGN.md,
// "Concurrency model" and "Deterministic, non-blocking index construction".
type Federation struct {
	mu    sync.RWMutex // queries read-lock; state mutation write-locks
	inner *fed.Federation
	index *ch.Index
	skel  *ch.Skeleton // topology skeleton for weight customization (guarded by mu)
	pool  *mpc.Pool
	mesh  *transport.LocalMesh

	// Customization pass accounting (atomics: read by gauges and /stats
	// without taking mu).
	customizes     atomic.Int64
	lastCustMs     atomic.Int64
	lastCustRounds atomic.Int64
	lastCustTicks  atomic.Int64

	// trafficVer counts silo-weight mutations (guarded by mu). Off-lock
	// builders record it at snapshot time; a changed version at swap time
	// means the build no longer describes the live weights.
	trafficVer uint64
	// building counts in-flight off-lock index builds (for IndexBuilding
	// and the build-in-progress gauge).
	building atomic.Int32

	// reg is the federation's metrics registry: MPC cost counters (fed by
	// every engine fork), per-query latency histograms and phase timings,
	// and preprocessing-pool gauges. Servers fold their own HTTP and
	// session-pool metrics into the same registry via Metrics().
	reg *metrics.Registry
	qm  map[string]*queryMetricSet
	bm  *buildMetricSet
}

// buildMetricSet instruments the index-build pipeline. The gauges read only
// atomics — a gauge callback must never take f.mu, or scraping /metrics
// while a writer holds the lock would deadlock.
type buildMetricSet struct {
	builds           *metrics.Counter
	conflicts        *metrics.Counter
	seconds          *metrics.Histogram
	rounds           *metrics.Counter
	roundsSaved      *metrics.Counter
	phaseOrdering    *metrics.Counter
	phaseContraction *metrics.Counter
	lastAvgWidth     atomic.Uint64 // math.Float64bits of the last build's AvgRoundWidth

	// Weight-customization pipeline (the contract-once / customize-per-metric
	// split; see DESIGN.md "Customizable hierarchy").
	customizes    *metrics.Counter
	custConflicts *metrics.Counter
	custSeconds   *metrics.Histogram
	custRounds    *metrics.Counter
	custTicks     *metrics.Counter
}

// queryMetricSet is the per-query-kind ("spsp", "sssp") instrument bundle.
type queryMetricSet struct {
	total, errors *metrics.Counter
	latency       *metrics.Histogram
	settled       *metrics.Counter
	heuristics    *metrics.Counter
	phaseQueue    *metrics.Counter
	phaseSAC      *metrics.Counter
	phaseRelax    *metrics.Counter
}

// New assembles a federation of len(siloWeights) silos over the shared
// topology g with public static weights w0. Each silo keeps its weight set
// private; all cross-silo computation runs through the MPC engine.
func New(g *Graph, w0 Weights, siloWeights []Weights, cfg ...Config) (*Federation, error) {
	var c Config
	if len(cfg) > 1 {
		return nil, fmt.Errorf("fedroad: at most one Config")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	reg := metrics.NewRegistry()
	params := mpc.Params{
		Seed:         c.Seed,
		RoundTimeout: c.RoundTimeout,
		Retry:        mpc.RetryPolicy{Attempts: c.SACRetries, Backoff: c.SACRetryBackoff},
		Wrap:         c.TransportWrap,
		Instr:        mpc.NewInstruments(reg),
	}
	if c.Mode == ModeProtocol {
		params.Mode = mpc.ModeProtocol
	}
	var mesh *transport.LocalMesh
	if c.MeshTCP {
		if c.Mode != ModeProtocol {
			return nil, fmt.Errorf("fedroad: MeshTCP requires ModeProtocol (ideal mode exchanges no messages)")
		}
		var err error
		mesh, err = transport.NewLocalMesh(len(siloWeights), transport.MeshOptions{TLS: c.MeshTLS})
		if err != nil {
			return nil, err
		}
		params.Dial = func() (mpc.ConnSet, error) {
			conns, drain := mesh.SessionConns()
			return mpc.ConnSet{Conns: conns, Drain: drain}, nil
		}
	} else if c.MeshTLS.Enabled() {
		return nil, fmt.Errorf("fedroad: MeshTLS requires MeshTCP")
	}
	inner, err := fed.New(g, w0, siloWeights, params)
	if err != nil {
		if mesh != nil {
			mesh.Close()
		}
		return nil, err
	}
	f := &Federation{inner: inner, reg: reg, mesh: mesh}
	f.initMetrics()
	if mesh != nil {
		f.initMeshMetrics()
	}
	if c.PreprocessPool > 0 {
		f.pool = mpc.NewPool(len(siloWeights), c.PreprocessPool, c.PreprocessWorkers, c.Seed^0x5f3759df)
		if err := inner.Engine().AttachPool(f.pool); err != nil {
			f.pool.Close()
			return nil, err
		}
		pool := f.pool
		reg.CounterFunc("fedroad_prepool_produced_total", "64-lane correlated-randomness blocks dealt by the preprocessing pool", nil,
			func() float64 { return float64(pool.Stats().Produced) })
		reg.CounterFunc("fedroad_prepool_hits_total", "Fed-SAC batch words (64 lanes) served from the preprocessing pool", nil,
			func() float64 { return float64(pool.Stats().Hits) })
		reg.CounterFunc("fedroad_prepool_misses_total", "Fed-SAC batch words that fell back to on-demand randomness generation", nil,
			func() float64 { return float64(pool.Stats().Misses) })
		reg.GaugeFunc("fedroad_prepool_buffered", "64-lane blocks currently ready in the preprocessing pool (0 = dry)", nil,
			func() float64 { return float64(pool.Stats().Buffered) })
	}
	return f, nil
}

// Metrics returns the federation's metrics registry. The library pre-wires
// MPC cost counters (Fed-SAC compares, rounds, bytes, retries, poisonings,
// engine forks), per-query latency histograms with per-phase timing
// breakdowns, and preprocessing-pool activity; callers may register their
// own metrics (an HTTP layer, a session pool) into the same registry and
// expose everything with one WriteText call.
func (f *Federation) Metrics() *metrics.Registry { return f.reg }

// initMetrics pre-creates the per-query-kind instrument bundles and static
// topology gauges.
func (f *Federation) initMetrics() {
	f.qm = make(map[string]*queryMetricSet)
	for _, kind := range []string{"spsp", "sssp"} {
		l := metrics.Labels{"kind": kind}
		f.qm[kind] = &queryMetricSet{
			total:      f.reg.Counter("fedroad_queries_total", "queries started, by kind (spsp = shortest path, sssp = kNN)", l),
			errors:     f.reg.Counter("fedroad_query_errors_total", "queries that returned an error, by kind", l),
			latency:    f.reg.Histogram("fedroad_query_seconds", "local query wall time", nil, l),
			settled:    f.reg.Counter("fedroad_query_settled_vertices_total", "vertices settled by search loops", l),
			heuristics: f.reg.Counter("fedroad_query_heuristic_evals_total", "federated lower-bound (A* potential) evaluations", l),
			phaseQueue: f.reg.Counter("fedroad_query_phase_seconds_total", "wall time by search phase", metrics.Labels{"kind": kind, "phase": "queue"}),
			phaseSAC:   f.reg.Counter("fedroad_query_phase_seconds_total", "wall time by search phase", metrics.Labels{"kind": kind, "phase": "sac_wait"}),
			phaseRelax: f.reg.Counter("fedroad_query_phase_seconds_total", "wall time by search phase", metrics.Labels{"kind": kind, "phase": "relax"}),
		}
	}
	f.bm = &buildMetricSet{
		builds:           f.reg.Counter("fedroad_index_builds_total", "shortcut-index builds that completed and were swapped in", nil),
		conflicts:        f.reg.Counter("fedroad_index_build_conflicts_total", "index builds discarded because traffic changed mid-build", nil),
		seconds:          f.reg.Histogram("fedroad_index_build_seconds", "wall time of completed index builds", nil, nil),
		rounds:           f.reg.Counter("fedroad_index_build_contraction_rounds_total", "independent-set contraction rounds executed by index builds", nil),
		roundsSaved:      f.reg.Counter("fedroad_index_build_mpc_rounds_saved_total", "MPC communication rounds avoided by batched Fed-SAC decisions during builds", nil),
		phaseOrdering:    f.reg.Counter("fedroad_index_build_phase_seconds_total", "index-build wall time by phase", metrics.Labels{"phase": "ordering"}),
		phaseContraction: f.reg.Counter("fedroad_index_build_phase_seconds_total", "index-build wall time by phase", metrics.Labels{"phase": "contraction"}),
		customizes:       f.reg.Counter("fedroad_index_customizes_total", "weight-customization passes that completed and were swapped in", nil),
		custConflicts:    f.reg.Counter("fedroad_index_customize_conflicts_total", "customization passes discarded because traffic changed mid-pass", nil),
		custSeconds:      f.reg.Histogram("fedroad_index_customize_seconds", "wall time of completed weight-customization passes", nil, nil),
		custRounds:       f.reg.Counter("fedroad_index_customize_mpc_rounds_total", "MPC communication rounds spent by weight-customization passes", nil),
		custTicks:        f.reg.Counter("fedroad_index_customize_ticks_total", "scheduler ticks (one Fed-SAC instance each) run by weight-customization passes", nil),
	}
	bm := f.bm
	f.reg.GaugeFunc("fedroad_index_build_in_progress", "off-lock index builds currently running", nil,
		func() float64 { return float64(f.building.Load()) })
	f.reg.GaugeFunc("fedroad_index_build_parallelism", "average vertices contracted per round in the last completed build", nil,
		func() float64 { return math.Float64frombits(bm.lastAvgWidth.Load()) })
	g := f.inner.Graph()
	f.reg.GaugeFunc("fedroad_graph_vertices", "vertices in the shared road network", nil,
		func() float64 { return float64(g.NumVertices()) })
	f.reg.GaugeFunc("fedroad_graph_arcs", "arcs in the shared road network", nil,
		func() float64 { return float64(g.NumArcs()) })
	f.reg.GaugeFunc("fedroad_silos", "data silos in the federation", nil,
		func() float64 { return float64(f.inner.P()) })
}

// recordQuery folds one query's outcome into the registry. Zero-cost when
// the federation was built without a registry (tests constructing the struct
// directly).
func (f *Federation) recordQuery(kind string, stats Stats, err error) {
	m := f.qm[kind]
	if m == nil {
		return
	}
	m.total.Inc()
	if err != nil {
		m.errors.Inc()
		return
	}
	m.latency.Observe(stats.WallTime.Seconds())
	m.settled.Add(float64(stats.SettledVertices))
	m.heuristics.Add(float64(stats.HeuristicEvals))
	m.phaseQueue.Add(stats.Phases.Queue.Seconds())
	m.phaseSAC.Add(stats.Phases.SACWait.Seconds())
	m.phaseRelax.Add(stats.Phases.Relax.Seconds())
}

// Close releases background resources (the preprocessing pool's workers and
// the mesh transport's sockets and heartbeat/redial goroutines). Without a
// mesh the federation remains queryable afterwards; with one, in-flight and
// future protocol-mode queries fail with typed errors.
func (f *Federation) Close() {
	if f.pool != nil {
		f.pool.Close()
	}
	if f.mesh != nil {
		f.mesh.Close()
	}
}

// initMeshMetrics mirrors the mesh transport's counters into the registry.
// All callbacks read atomics only — no lock is shared with the data path or
// with f.mu.
func (f *Federation) initMeshMetrics() {
	mesh := f.mesh
	sum := func(pick func(transport.MeshStats) int64) float64 {
		var t int64
		for _, st := range mesh.Stats() {
			t += pick(st)
		}
		return float64(t)
	}
	f.reg.GaugeFunc("fedroad_mesh_links_up", "live physical inter-silo links (all endpoints)", nil,
		func() float64 { return sum(func(st transport.MeshStats) int64 { return int64(st.LinksUp) }) })
	f.reg.CounterFunc("fedroad_mesh_reconnects_total", "automatic inter-silo link re-establishments", nil,
		func() float64 { return sum(func(st transport.MeshStats) int64 { return st.Reconnects }) })
	f.reg.CounterFunc("fedroad_mesh_heartbeat_misses_total", "heartbeat deadline expiries that declared a link dead", nil,
		func() float64 { return sum(func(st transport.MeshStats) int64 { return st.HeartbeatMisses }) })
	f.reg.CounterFunc("fedroad_mesh_bytes_sent_total", "bytes sent over inter-silo mesh links", nil,
		func() float64 { return sum(func(st transport.MeshStats) int64 { return st.BytesSent }) })
	f.reg.CounterFunc("fedroad_mesh_messages_sent_total", "frames sent over inter-silo mesh links", nil,
		func() float64 { return sum(func(st transport.MeshStats) int64 { return st.MsgsSent }) })
}

// MeshStats reports the mesh transport's per-endpoint link and traffic
// counters (one entry per silo endpoint), or nil when the federation runs
// on the in-process transport (Config.MeshTCP unset).
func (f *Federation) MeshStats() []MeshStats {
	if f.mesh == nil {
		return nil
	}
	return f.mesh.Stats()
}

// BreakMeshLink force-closes the physical link between two silo endpoints
// (chaos hook: a mid-round disconnect). The mesh redials it automatically;
// queries in flight on the link fail with typed errors. No-op without a
// mesh.
func (f *Federation) BreakMeshLink(a, b int) {
	if f.mesh == nil {
		return
	}
	f.mesh.Mesh(a).BreakLink(b)
	f.mesh.Mesh(b).BreakLink(a)
}

// HasPool reports whether a preprocessing pool is configured — callers use it
// to distinguish "pool empty" (degraded, queries pay the offline phase
// online) from "no pool at all" (PoolStats is all zeros either way).
func (f *Federation) HasPool() bool { return f.pool != nil }

// PoolStats reports preprocessing-pool activity, counted in 64-lane blocks;
// the zero value when no pool is configured.
func (f *Federation) PoolStats() mpc.PoolStats {
	if f.pool == nil {
		return mpc.PoolStats{}
	}
	return f.pool.Stats()
}

// Graph returns the shared topology.
func (f *Federation) Graph() *Graph { return f.inner.Graph() }

// TrafficVersion returns the traffic version: a counter of silo-weight
// mutations (non-empty ApplyTraffic, RestoreState).
// Serving tiers fold it into cache keys — a traffic update bumps the version,
// which makes every older cache entry unreachable without any explicit
// invalidation. The versioned query methods (Session.ShortestPathAt,
// Session.NearestNeighborsAt) echo the version their result was computed at.
func (f *Federation) TrafficVersion() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.trafficVer
}

// Silos returns the number of data silos.
func (f *Federation) Silos() int { return f.inner.P() }

// IndexParams tunes how an index derivation meets concurrent traffic. The
// derivation itself takes no knob: BuildIndexWith runs the paper's witness
// build (its ordering and witness bounds are evaluation axes, swept by
// cmd/fedbench on ch.Params) and CustomizeIndexWith the skeleton's one
// min-fill order.
type IndexParams struct {
	// RebuildOnConflict is how often a derivation whose weight snapshot a
	// concurrent traffic update invalidated restarts from fresh weights
	// before ErrBuildConflict: cmd/fedserver's reindexing and ApplyTraffic's
	// RebuildIndex use 2, a plain BuildIndex 0.
	RebuildOnConflict int
}

// BuildIndex constructs the federated shortcut index (§IV) with default
// parameters. Queries use it automatically once built.
func (f *Federation) BuildIndex() error {
	return f.BuildIndexWith(IndexParams{})
}

// BuildIndexWith constructs the index under explicit framework parameters,
// without blocking queries or traffic updates while it runs: the silo
// weights are snapshotted under a read lock, the whole ordering +
// contraction effort happens off-lock on a forked MPC engine, and the
// finished index is swapped in under a brief write lock. No query ever
// observes a half-built index — searches use either the previous index or
// the new one.
//
// If a traffic update lands between snapshot and swap, the stale build is
// discarded: with prm.RebuildOnConflict > 0 the build restarts from fresh
// weights up to that many times, otherwise (or when retries are exhausted)
// ErrBuildConflict is returned and any previously built index stays in
// service.
func (f *Federation) BuildIndexWith(prm IndexParams) error {
	f.building.Add(1)
	defer f.building.Add(-1)
	return f.deriveIndex(prm.RebuildOnConflict, func() (indexRunner, error) {
		return ch.NewBuilder(f.inner, ch.Params{})
	}, f.recordBuild)
}

// indexRunner is the off-lock half of an index derivation (ch.Builder,
// ch.Customizer): everything after the weight snapshot.
type indexRunner interface{ Run() (*ch.Index, error) }

// deriveIndex is the off-lock derivation protocol every index (re)build and
// customization follows: snapshot (the only read of silo weights) under the
// read lock, Run with no lock held while queries and updates proceed, then
// swap the result in under the write lock unless the traffic version moved
// since the snapshot — in which case the stale index is dropped and the
// derivation restarts, up to retries times, before ErrBuildConflict. record
// sees every finished run's statistics and whether it was swapped in.
func (f *Federation) deriveIndex(retries int, snapshot func() (indexRunner, error), record func(st ch.BuildStats, swapped bool)) error {
	for attempt := 0; ; attempt++ {
		f.mu.RLock()
		ver := f.trafficVer
		r, err := snapshot()
		f.mu.RUnlock()
		if err != nil {
			return err
		}
		idx, err := r.Run()
		if err != nil {
			return err
		}
		f.mu.Lock()
		swapped := f.trafficVer == ver
		if swapped {
			f.index = idx
		}
		f.mu.Unlock()
		record(idx.BuildStatistics(), swapped)
		if swapped {
			return nil
		}
		if attempt >= retries {
			return fmt.Errorf("%w (after %d attempt(s))", ErrBuildConflict, attempt+1)
		}
	}
}

// recordBuild folds a finished build — swapped in, or discarded on a traffic
// conflict — into the registry (nil-safe for tests constructing the struct
// directly).
func (f *Federation) recordBuild(st ch.BuildStats, swapped bool) {
	if f.bm == nil {
		return
	}
	if !swapped {
		f.bm.conflicts.Inc()
		return
	}
	f.bm.builds.Inc()
	f.bm.seconds.Observe(st.WallTime.Seconds())
	f.bm.rounds.Add(float64(st.Rounds))
	f.bm.roundsSaved.Add(float64(st.RoundsSaved))
	f.bm.phaseOrdering.Add(st.OrderingTime.Seconds())
	f.bm.phaseContraction.Add(st.ContractionTime.Seconds())
	f.bm.lastAvgWidth.Store(math.Float64bits(st.AvgRoundWidth))
}

// BuildSkeleton constructs the federation's topology skeleton: the vertex
// order plus the full shortcut structure, a function of the public topology
// alone (no weights, no MPC), so it is derived, never stored. The skeleton is
// metric-independent; CustomizeIndex derives a queryable index from it for
// the CURRENT silo weights in a fraction of the MPC rounds a full
// BuildIndexWith costs. Idempotent: a second call keeps the existing skeleton
// (the topology is immutable, so it never goes stale).
func (f *Federation) BuildSkeleton() error {
	_, err := f.ensureSkeleton()
	return err
}

// ensureSkeleton returns the federation's skeleton, building it on first
// demand. The build runs entirely off-lock — it reads only the immutable
// topology — with double-checked locking so concurrent callers never install
// two skeletons.
func (f *Federation) ensureSkeleton() (*ch.Skeleton, error) {
	f.mu.RLock()
	sk := f.skel
	f.mu.RUnlock()
	if sk != nil {
		return sk, nil
	}
	built, err := ch.BuildSkeleton(f.inner.Graph())
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.skel == nil {
		f.skel = built
	}
	sk = f.skel
	f.mu.Unlock()
	return sk, nil
}

// HasSkeleton reports whether a topology skeleton is available, i.e. whether
// CustomizeIndex can run (and ApplyTraffic's RebuildIndex option will prefer
// customization over a full rebuild).
func (f *Federation) HasSkeleton() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.skel != nil
}

// SkeletonStats reports the skeleton's shortcut count and (plaintext)
// construction cost; the zero value when none has been built.
func (f *Federation) SkeletonStats() ch.SkeletonStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.skel == nil {
		return ch.SkeletonStats{}
	}
	return f.skel.Stats()
}

// CustomizeIndex derives a fresh queryable index from the topology skeleton
// and the CURRENT silo weights with default parameters, building the
// skeleton first if none exists. See CustomizeIndexWith.
func (f *Federation) CustomizeIndex() error {
	return f.CustomizeIndexWith(IndexParams{})
}

// CustomizeIndexWith runs the weight-customization phase: a bottom-up sweep
// over the fixed skeleton that re-derives every shortcut's private partial
// weights with batched Fed-SAC group tournaments — one batch per tick of the
// skeleton's comparison DAG, every tournament advancing as far as its
// operands allow — instead of re-running ordering, witness searches and
// contraction.
// The resulting index answers queries with byte-identical distances to a
// from-scratch BuildIndexWith at the same traffic version, for a small
// fraction of the MPC rounds.
//
// Like BuildIndexWith it never blocks queries or traffic updates: the sweep
// runs off-lock against a weight snapshot and the finished index swaps in
// under a brief write lock, with the same ErrBuildConflict /
// RebuildOnConflict semantics when traffic moves mid-pass. IndexBuilding is
// already true while a first skeleton is being contracted.
func (f *Federation) CustomizeIndexWith(prm IndexParams) error {
	f.building.Add(1)
	defer f.building.Add(-1)
	sk, err := f.ensureSkeleton()
	if err != nil {
		return err
	}
	return f.deriveIndex(prm.RebuildOnConflict, func() (indexRunner, error) {
		return ch.NewCustomizer(f.inner, sk)
	}, f.recordCustomize)
}

// recordCustomize folds a finished customization pass — swapped in, or
// discarded on a traffic conflict — into the registry and the /stats atomics
// (nil-safe for tests constructing the struct directly).
func (f *Federation) recordCustomize(st ch.BuildStats, swapped bool) {
	if !swapped {
		if f.bm != nil {
			f.bm.custConflicts.Inc()
		}
		return
	}
	f.customizes.Add(1)
	f.lastCustMs.Store(st.WallTime.Milliseconds())
	f.lastCustRounds.Store(st.SAC.Rounds)
	f.lastCustTicks.Store(int64(st.Rounds))
	if f.bm == nil {
		return
	}
	f.bm.customizes.Inc()
	f.bm.custSeconds.Observe(st.WallTime.Seconds())
	f.bm.custRounds.Add(float64(st.SAC.Rounds))
	f.bm.custTicks.Add(float64(st.Rounds))
}

// CustomizeInfo summarizes the customization pipeline for serving tiers'
// status endpoints. Reads atomics only — safe to call from metric callbacks.
type CustomizeInfo struct {
	// Customizes counts completed customization passes swapped in.
	Customizes int64
	// LastWallMs is the wall time of the most recent pass, in milliseconds.
	LastWallMs int64
	// LastMPCRounds is the Fed-SAC round count of the most recent pass.
	LastMPCRounds int64
	// LastTicks is the scheduler tick count of the most recent pass: one
	// Fed-SAC instance each, the skeleton's critical path for a full pass.
	LastTicks int64
}

// CustomizeInfo reports the customization counters (zero values before the
// first CustomizeIndex).
func (f *Federation) CustomizeInfo() CustomizeInfo {
	return CustomizeInfo{
		Customizes:    f.customizes.Load(),
		LastWallMs:    f.lastCustMs.Load(),
		LastMPCRounds: f.lastCustRounds.Load(),
		LastTicks:     f.lastCustTicks.Load(),
	}
}

// HasIndex reports whether a shortcut index is currently serving queries.
// During an off-lock rebuild it keeps reporting the previous index (true) —
// or false if none was ever built — until the new index is swapped in; use
// IndexBuilding to observe an in-flight build.
func (f *Federation) HasIndex() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.index != nil
}

// IndexBuilding reports whether an off-lock index build is in flight.
// Queries keep running against the previous index (if any) while this is
// true.
func (f *Federation) IndexBuilding() bool { return f.building.Load() > 0 }

// IndexStats reports the shortcut count and construction cost of the index
// currently serving queries. During an off-lock rebuild these are the
// PREVIOUS index's statistics, not the in-flight build's; zero values mean
// no index has ever finished building (check IndexBuilding to distinguish
// "never built" from "first build still running").
func (f *Federation) IndexStats() ch.BuildStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.index == nil {
		return ch.BuildStats{}
	}
	return f.index.BuildStatistics()
}

// MaxTravelMs bounds every travel-time observation (exclusive); see
// graph.MaxWeight and the fixed-point discipline in DESIGN.md.
const MaxTravelMs = int64(graph.MaxWeight)

func (f *Federation) validateTraffic(silo int, a Arc, travelTimeMs int64) error {
	if silo < 0 || silo >= f.Silos() {
		return fmt.Errorf("%w: silo %d out of range [0,%d)", ErrInvalidUpdate, silo, f.Silos())
	}
	if int(a) < 0 || int(a) >= f.Graph().NumArcs() {
		return fmt.Errorf("%w: arc %d out of range [0,%d)", ErrInvalidUpdate, a, f.Graph().NumArcs())
	}
	if travelTimeMs <= 0 || travelTimeMs >= MaxTravelMs {
		return fmt.Errorf("%w: travel time %dms outside (0,%d)", ErrInvalidUpdate, travelTimeMs, MaxTravelMs)
	}
	return nil
}

// TrafficUpdate is one silo's new travel-time observation for one arc.
type TrafficUpdate struct {
	Silo     int
	Arc      Arc
	TravelMs int64
}

// ApplyOption tunes how ApplyTraffic refreshes the shortcut index after the
// batch lands.
type ApplyOption int

const (
	// RebuildIndex replaces the in-place incremental index refresh with a
	// fresh off-lock derivation after the batch is applied: a
	// weight-customization pass over the topology skeleton when one exists
	// (no ordering, no witness searches — a fraction of the MPC rounds), or
	// a full federated rebuild otherwise. Queries keep using the previous
	// index until the replacement swaps in; further traffic landing mid-pass
	// triggers a bounded number of retries from fresh weights before
	// ErrBuildConflict is returned.
	RebuildIndex ApplyOption = iota
)

// ApplyTraffic validates and applies a batch of traffic updates and, when
// the shortcut index is built, refreshes it — by default inside one exclusive
// critical section (the federated partial update), so no query ever observes
// silo weights that disagree with the index. Invalid updates are rejected up
// front; nothing is applied.
//
// With the RebuildIndex option the refresh instead derives a whole fresh
// index off-lock — preferring weight customization when a skeleton exists —
// and the returned UpdateStats are zero (the work is a (re)build, not a
// partial update).
func (f *Federation) ApplyTraffic(updates []TrafficUpdate, opts ...ApplyOption) (ch.UpdateStats, error) {
	rebuild := false
	for _, o := range opts {
		if o == RebuildIndex {
			rebuild = true
		}
	}
	for _, u := range updates {
		if err := f.validateTraffic(u.Silo, u.Arc, u.TravelMs); err != nil {
			return ch.UpdateStats{}, err
		}
	}
	f.mu.Lock()
	arcSet := make(map[Arc]bool, len(updates))
	for _, u := range updates {
		f.inner.Silo(u.Silo).SetWeight(u.Arc, u.TravelMs)
		arcSet[u.Arc] = true
	}
	if len(updates) > 0 {
		f.trafficVer++
	}
	if rebuild {
		hasSkel := f.skel != nil
		f.mu.Unlock()
		prm := IndexParams{RebuildOnConflict: 2}
		if hasSkel {
			return ch.UpdateStats{}, f.CustomizeIndexWith(prm)
		}
		return ch.UpdateStats{}, f.BuildIndexWith(prm)
	}
	defer f.mu.Unlock()
	if f.index == nil {
		return ch.UpdateStats{}, nil
	}
	arcs := make([]Arc, 0, len(arcSet))
	for a := range arcSet {
		arcs = append(arcs, a)
	}
	return f.index.Update(arcs)
}

// QueryOptions tunes a single query. Every query runs the paper's best stack
// — the TM-tree, and for routes Fed-AMPS pruning over the shortcut index when
// one is built (a federation without an index searches flat; kNN is flat by
// construction). The paper's other queues and estimators are evaluation axes,
// reproduced by cmd/fedbench (fig7, fig11, fig12, ablate).
type QueryOptions struct {
	// BatchedMPC lets independent secure comparisons share protocol
	// instances, paying communication rounds once for all of them: the
	// matches of one tournament level (TM-tree build, μ update), the
	// stopping-rule checks of both search directions and — every search
	// step running in lockstep — the pop replay, the next push's tournament
	// build and the μ update of both directions. The comparisons made and
	// the answer are the same; indexed routes take about half the rounds.
	BatchedMPC bool
}

// Route is a query answer: the joint shortest path and its per-silo partial
// costs. The joint cost is the mean of the partials; only the path itself
// and comparison outcomes ever cross silo boundaries.
type Route struct {
	Path     []Vertex
	Partials []int64
	Found    bool
}

// Stats re-exports per-query cost counters.
type Stats = core.QueryStats

// SACStats re-exports the MPC engine's accumulated cost counters (used by
// Session.Stats).
type SACStats = mpc.Stats

// ShortestPath answers a federated single-pair shortest-path query with the
// default (or given) options. Safe for concurrent use: each call runs in an
// ephemeral query session (see Session) under the federation's read lock.
// Callers issuing many queries should hold a Session to reuse its MPC
// engine fork.
func (f *Federation) ShortestPath(s, t Vertex, opts ...QueryOptions) (Route, Stats, error) {
	sess := f.Session()
	defer sess.Close()
	return sess.ShortestPath(s, t, opts...)
}

// NearestNeighbors answers a federated kNN query (Fed-SSSP, Alg. 1): the k
// nearest vertices to s on the joint road network, nearest first (the source
// itself is the first entry). Safe for concurrent use (see ShortestPath).
func (f *Federation) NearestNeighbors(s Vertex, k int, opts ...QueryOptions) ([]Route, Stats, error) {
	sess := f.Session()
	defer sess.Close()
	return sess.NearestNeighbors(s, k, opts...)
}

// JointCost sums a route's per-silo partials — the joint cost scaled by the
// silo count. This is an evaluation helper: computing it in a real
// deployment would reveal the joint cost, which FedRoad's protocols never
// do.
func JointCost(r Route) int64 {
	var s int64
	for _, p := range r.Partials {
		s += p
	}
	return s
}
