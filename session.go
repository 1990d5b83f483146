package fedroad

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/lb"
	"repro/internal/pq"
)

// Session is a concurrent query context over a federation. It snapshots
// nothing and copies nothing heavyweight: the shared immutable state
// (topology, public static weights, shortcut index) is referenced, while
// everything mutable per query — the MPC engine with its transport lanes,
// dealer randomness stream and cost counters — is owned by the session,
// forked from the federation's root engine. Queries on distinct sessions
// therefore run fully in parallel; the federation's reader/writer lock only
// serializes them against traffic updates and the brief index swap at the end
// of an off-lock rebuild (the heavy construction work runs without the lock,
// so queries keep flowing during it — see Federation.BuildIndexWith).
//
// A Session issues one query at a time (it is not itself safe for
// concurrent use); open one session per worker goroutine.
type Session struct {
	f     *Federation
	inner *fed.Federation // engine-owning fork of the root federation
}

// Session opens a query session. Sessions are cheap (no protocol
// calibration is repeated); Close releases their transport endpoints.
func (f *Federation) Session() *Session {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return &Session{f: f, inner: f.inner.Fork()}
}

// Federation returns the federation the session queries.
func (s *Session) Federation() *Federation { return s.f }

// Stats returns the session's accumulated Fed-SAC cost counters across all
// its queries.
func (s *Session) Stats() SACStats { return s.inner.Engine().Stats() }

// Close releases the session's in-process transport endpoints. Optional —
// an unclosed session is garbage-collected — but good hygiene for
// long-lived servers.
func (s *Session) Close() { s.inner.Engine().Close() }

// Poisoned reports whether the session's MPC engine was disabled by an
// unrecoverable transport failure. A poisoned session fails every further
// query fast (wrapping ErrSessionPoisoned); callers must Close it and open a
// fresh session — the federation itself remains healthy.
func (s *Session) Poisoned() bool { return s.inner.Engine().Poisoned() }

// oneOpt validates the variadic options idiom shared by the query methods.
func oneOpt(opts []QueryOptions) (QueryOptions, error) {
	switch len(opts) {
	case 0:
		return QueryOptions{}, nil
	case 1:
		return opts[0], nil
	default:
		return QueryOptions{}, fmt.Errorf("%w: at most one QueryOptions", ErrInvalidQuery)
	}
}

// checkVertex range-checks a query endpoint.
func (s *Session) checkVertex(name string, v Vertex) error {
	if n := s.f.Graph().NumVertices(); int(v) < 0 || int(v) >= n {
		return fmt.Errorf("%w: %s vertex %d out of range [0,%d)", ErrInvalidQuery, name, v, n)
	}
	return nil
}

// ShortestPath answers a federated single-pair shortest-path query on this
// session, under the federation's read lock.
func (s *Session) ShortestPath(src, dst Vertex, opts ...QueryOptions) (Route, Stats, error) {
	route, stats, _, err := s.ShortestPathAt(src, dst, opts...)
	return route, stats, err
}

// ShortestPathAt is ShortestPath plus the traffic version the answer was
// computed at, captured under the same read lock as the search itself — so
// the result is exact for precisely that version. Serving tiers echo it to
// clients and key caches by it.
func (s *Session) ShortestPathAt(src, dst Vertex, opts ...QueryOptions) (Route, Stats, uint64, error) {
	opt, err := oneOpt(opts)
	if err == nil {
		err = s.checkVertex("source", src)
	}
	if err == nil {
		err = s.checkVertex("target", dst)
	}
	if err != nil {
		s.f.recordQuery("spsp", Stats{}, err)
		return Route{}, Stats{}, 0, err
	}
	s.f.mu.RLock()
	defer s.f.mu.RUnlock()
	ver := s.f.trafficVer
	route, stats, err := s.shortestPathLocked(src, dst, opt)
	s.f.recordQuery("spsp", stats, err)
	return route, stats, ver, err
}

// shortestPathLocked runs the query body — the TM-tree and Fed-AMPS over the
// shortcut index when one is built, flat otherwise; the caller holds f.mu
// (read).
func (s *Session) shortestPathLocked(src, dst Vertex, opt QueryOptions) (Route, Stats, error) {
	e, err := core.NewEngine(s.inner, core.Options{
		Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: s.f.index, BatchedMPC: opt.BatchedMPC,
	})
	if err != nil {
		return Route{}, Stats{}, err
	}
	res, stats, err := e.SPSP(src, dst)
	if err != nil {
		return Route{}, Stats{}, fmt.Errorf("fedroad: shortest path %d->%d: %w", src, dst, err)
	}
	return Route{Path: res.Path, Partials: res.Partial, Found: res.Found}, stats, nil
}

// NearestNeighbors answers a federated kNN query on this session, under the
// federation's read lock. kNN runs Fed-SSSP on the flat network with the
// TM-tree: there is no fixed target to estimate toward or to search an index
// for.
func (s *Session) NearestNeighbors(src Vertex, k int, opts ...QueryOptions) ([]Route, Stats, error) {
	routes, stats, _, err := s.NearestNeighborsAt(src, k, opts...)
	return routes, stats, err
}

// NearestNeighborsAt is NearestNeighbors plus the traffic version the answer
// was computed at, captured under the same read lock as the search (see
// ShortestPathAt).
func (s *Session) NearestNeighborsAt(src Vertex, k int, opts ...QueryOptions) ([]Route, Stats, uint64, error) {
	opt, err := oneOpt(opts)
	if err == nil {
		err = s.checkVertex("source", src)
	}
	if err == nil && k < 1 {
		err = fmt.Errorf("%w: k = %d must be positive", ErrInvalidQuery, k)
	}
	if err != nil {
		s.f.recordQuery("sssp", Stats{}, err)
		return nil, Stats{}, 0, err
	}
	s.f.mu.RLock()
	defer s.f.mu.RUnlock()
	ver := s.f.trafficVer
	routes, stats, err := s.nearestNeighborsLocked(src, k, opt)
	s.f.recordQuery("sssp", stats, err)
	return routes, stats, ver, err
}

// nearestNeighborsLocked runs the query body; the caller holds f.mu (read).
func (s *Session) nearestNeighborsLocked(src Vertex, k int, opt QueryOptions) ([]Route, Stats, error) {
	e, err := core.NewEngine(s.inner, core.Options{Queue: pq.KindTMTree, BatchedMPC: opt.BatchedMPC})
	if err != nil {
		return nil, Stats{}, err
	}
	results, stats, err := e.SSSP(src, k)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("fedroad: %d-nearest from %d: %w", k, src, err)
	}
	routes := make([]Route, len(results))
	for i, r := range results {
		routes[i] = Route{Path: r.Path, Partials: r.Partial, Found: r.Found}
	}
	return routes, stats, nil
}
