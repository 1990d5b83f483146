package fedroad

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/pq"
)

// Session is a concurrent query context over a federation. It copies nothing
// heavyweight: each query loads the published version — topology, silo
// weights, shortcut index, all immutable — while everything mutable per query
// — the MPC engine with its transport lanes, dealer randomness stream and
// cost counters — is owned by the session, forked from the federation's root
// engine. Queries on distinct sessions therefore run fully in parallel, and
// no query waits for a traffic update or an index derivation: it answers at
// the version it loaded (see Federation.BuildIndex).
//
// A Session issues one query at a time (it is not itself safe for
// concurrent use); open one session per worker goroutine.
type Session struct {
	f     *Federation
	inner *fed.Federation // the session's engine fork
}

// Session opens a query session. Sessions are cheap (no protocol
// calibration is repeated); Close releases their transport endpoints.
func (f *Federation) Session() *Session {
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
// The options themselves select nothing (see QueryOptions).
func oneOpt(opts []QueryOptions) error {
	if len(opts) > 1 {
		return fmt.Errorf("%w: at most one QueryOptions", ErrInvalidQuery)
	}
	return nil
}

// checkVertex range-checks a query endpoint.
func (s *Session) checkVertex(name string, v Vertex) error {
	if n := s.f.Graph().NumVertices(); int(v) < 0 || int(v) >= n {
		return fmt.Errorf("%w: %s vertex %d out of range [0,%d)", ErrInvalidQuery, name, v, n)
	}
	return nil
}

// ShortestPath answers a federated single-pair shortest-path query on this
// session, at the published version.
func (s *Session) ShortestPath(src, dst Vertex, opts ...QueryOptions) (Route, Stats, error) {
	route, stats, _, err := s.ShortestPathAt(src, dst, opts...)
	return route, stats, err
}

// ShortestPathAt is ShortestPath plus the traffic version the answer was
// computed at: the query loads the published version once and searches its
// weights and index, so the result is exact for precisely that version.
// Serving tiers echo it to clients and key caches by it.
func (s *Session) ShortestPathAt(src, dst Vertex, opts ...QueryOptions) (Route, Stats, uint64, error) {
	err := oneOpt(opts)
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
	v := s.f.cur.Load()
	route, stats, err := s.shortestPath(v, src, dst)
	s.f.recordQuery("spsp", stats, err)
	return route, stats, v.traffic, err
}

// shortestPath runs the query body at version v — the TM-tree and Fed-AMPS
// over v's shortcut index when it has one, flat otherwise.
func (s *Session) shortestPath(v *version, src, dst Vertex) (Route, Stats, error) {
	e, err := core.NewEngine(s.inner.At(v.fed), core.RouteOptions(v.index))
	if err != nil {
		return Route{}, Stats{}, err
	}
	res, stats, err := e.SPSP(src, dst)
	if err != nil {
		return Route{}, Stats{}, fmt.Errorf("fedroad: shortest path %d->%d: %w", src, dst, err)
	}
	return Route{Path: res.Path, Partials: res.Partial, Found: res.Found}, stats, nil
}

// NearestNeighbors answers a federated kNN query on this session, at the
// published version. kNN runs Fed-SSSP on the flat network with the
// TM-tree: there is no fixed target to estimate toward or to search an index
// for.
func (s *Session) NearestNeighbors(src Vertex, k int, opts ...QueryOptions) ([]Route, Stats, error) {
	routes, stats, _, err := s.NearestNeighborsAt(src, k, opts...)
	return routes, stats, err
}

// NearestNeighborsAt is NearestNeighbors plus the traffic version the answer
// was computed at, the one version the query loaded (see ShortestPathAt).
func (s *Session) NearestNeighborsAt(src Vertex, k int, opts ...QueryOptions) ([]Route, Stats, uint64, error) {
	err := oneOpt(opts)
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
	v := s.f.cur.Load()
	routes, stats, err := s.nearestNeighbors(v, src, k)
	s.f.recordQuery("sssp", stats, err)
	return routes, stats, v.traffic, err
}

// nearestNeighbors runs the query body at version v.
func (s *Session) nearestNeighbors(v *version, src Vertex, k int) ([]Route, Stats, error) {
	e, err := core.NewEngine(s.inner.At(v.fed), core.Options{Queue: pq.KindTMTree, BatchedMPC: true})
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
