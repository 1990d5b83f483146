package fedroad

import (
	"fmt"

	"repro/internal/cache"
)

// CacheOutcome classifies how a cached query call was served: CacheMiss (this
// call ran the MPC query), CacheHit (served from a stored entry) or
// CacheCoalesced (shared a concurrent leader's in-flight computation).
type CacheOutcome = cache.Outcome

// Cache outcomes (see internal/cache).
const (
	CacheMiss      = cache.Miss
	CacheHit       = cache.Hit
	CacheCoalesced = cache.Coalesced
)

// CacheStats is a point-in-time aggregate of a QueryCache's counters.
type CacheStats = cache.Stats

// QueryCache is a traffic-version-keyed result cache for SPSP and kNN
// queries: a sharded LRU with request coalescing, keyed by (kind, endpoints,
// traffic version). Because the version is part of the key, a traffic update
// invalidates every older entry for free — they simply become unreachable and
// age out of the LRU. The coalescing path guarantees a thundering herd on one
// OD pair runs ONE MPC query.
//
// Correctness under races: the lookup version is read before the query, and
// the version echoed with each result is the one the query loaded — which can
// only be newer. A served result therefore never
// reflects weights older than the version the caller observed.
//
// A QueryCache is safe for concurrent use. Cached routes are shared between
// callers and must be treated as immutable.
type QueryCache struct {
	f *Federation
	c *cache.Cache
}

// NewQueryCache builds a result cache holding at most capacity entries and
// registers its hit/miss/coalesce/evict counters and entry gauge on the
// federation's metrics registry (fedroad_cache_*).
func (f *Federation) NewQueryCache(capacity int) *QueryCache {
	qc := &QueryCache{f: f, c: cache.New(capacity)}
	c := qc.c
	f.reg.CounterFunc("fedroad_cache_hits_total", "queries served from the result cache", nil,
		func() float64 { return float64(c.Stats().Hits) })
	f.reg.CounterFunc("fedroad_cache_misses_total", "queries that ran the MPC engine and populated the result cache", nil,
		func() float64 { return float64(c.Stats().Misses) })
	f.reg.CounterFunc("fedroad_cache_coalesced_total", "queries that shared a concurrent identical query's in-flight result", nil,
		func() float64 { return float64(c.Stats().Coalesced) })
	f.reg.CounterFunc("fedroad_cache_evicted_total", "result-cache entries evicted under capacity pressure while still current", nil,
		func() float64 { return float64(c.Stats().EvictedCapacity) })
	f.reg.CounterFunc("fedroad_cache_evicted_stale_total", "result-cache entries evicted after a traffic update had already made them unreachable", nil,
		func() float64 { return float64(c.Stats().EvictedStale) })
	f.reg.GaugeFunc("fedroad_cache_entries", "entries currently stored in the result cache", nil,
		func() float64 { return float64(c.Len()) })
	return qc
}

// cachedRoute is the immutable stored value for one SPSP entry.
type cachedRoute struct {
	route Route
	stats Stats
}

// cachedKNN is the immutable stored value for one kNN entry.
type cachedKNN struct {
	routes []Route
	stats  Stats
}

// ShortestPath serves an SPSP query through the cache. On a miss it calls run
// — exactly once across all concurrent callers of the same key — which must
// execute the query and return the result plus the traffic version it was
// computed at (Session.ShortestPathAt). The returned version is the one the
// result was computed at; the returned stats are the computing call's (hits
// replay the original cost counters, having spent none themselves). The
// options are ignored, like QueryOptions itself; the parameter is kept only
// because benchmark/workload.go passes it.
func (qc *QueryCache) ShortestPath(src, dst Vertex, _ QueryOptions,
	run func() (Route, Stats, uint64, error)) (Route, Stats, uint64, CacheOutcome, error) {
	cur := qc.f.TrafficVersion()
	key := fmt.Sprintf("spsp|%d|%d|%d", src, dst, cur)
	v, ver, out, err := qc.c.Do(key, cur, func() (any, uint64, error) {
		route, stats, ver, err := run()
		if err != nil {
			return nil, 0, err
		}
		return cachedRoute{route: route, stats: stats}, ver, nil
	})
	if err != nil {
		return Route{}, Stats{}, 0, out, err
	}
	cr := v.(cachedRoute)
	return cr.route, cr.stats, ver, out, nil
}

// NearestNeighbors serves a kNN query through the cache; see ShortestPath for
// the contract. run is Session.NearestNeighborsAt (or equivalent).
func (qc *QueryCache) NearestNeighbors(src Vertex, k int,
	run func() ([]Route, Stats, uint64, error)) ([]Route, Stats, uint64, CacheOutcome, error) {
	cur := qc.f.TrafficVersion()
	key := fmt.Sprintf("knn|%d|%d|%d", src, k, cur)
	v, ver, out, err := qc.c.Do(key, cur, func() (any, uint64, error) {
		routes, stats, ver, err := run()
		if err != nil {
			return nil, 0, err
		}
		return cachedKNN{routes: routes, stats: stats}, ver, nil
	})
	if err != nil {
		return nil, Stats{}, 0, out, err
	}
	ck := v.(cachedKNN)
	return ck.routes, ck.stats, ver, out, nil
}

// Stats aggregates the cache's counters.
func (qc *QueryCache) Stats() CacheStats { return qc.c.Stats() }
