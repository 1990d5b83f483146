package fedroad

import (
	"container/list"
	"errors"
	"sync"
)

// CacheOutcome classifies how a cached query call was served: CacheMiss (this
// call ran the MPC query, as the flight leader), CacheHit (served from a
// stored entry) or CacheCoalesced (shared a concurrent leader's in-flight
// query without running anything).
type CacheOutcome int

const (
	CacheMiss CacheOutcome = iota
	CacheHit
	CacheCoalesced
)

// String renders the outcome for responses and logs.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// CacheStats is a point-in-time aggregate of a QueryCache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	// EvictedCapacity counts LRU evictions of entries still at the current
	// traffic version (genuine capacity pressure); EvictedStale counts
	// evictions of entries whose version a traffic update had already made
	// unreachable (bookkeeping, not capacity pressure).
	EvictedCapacity uint64
	EvictedStale    uint64
	Entries         int
}

// QueryCache is a traffic-version-keyed result cache for SPSP and kNN
// queries: one LRU with per-key request coalescing, keyed by (kind,
// endpoints, traffic version). Every avoided miss is an MPC query — a whole
// Fed-SAC round budget — that never runs. Because the version is part of the
// key, a traffic update invalidates every older entry for free: they become
// unreachable and age out of the LRU, never served. The coalescing path
// guarantees a thundering herd on one OD pair runs ONE MPC query; waiters
// hold no session, no semaphore slot and no admission ticket while they wait.
//
// Correctness under races: the lookup version is read before the query, and
// the version echoed with each result is the one the query loaded — which can
// only be newer. A served result therefore never reflects weights older than
// the version the caller observed.
//
// A QueryCache is safe for concurrent use. Cached routes are shared between
// callers and must be treated as immutable.
type QueryCache struct {
	f        *Federation
	capacity int

	mu      sync.Mutex
	lru     *list.List               // answered *cacheEntry, most recently used first
	entries map[cacheKey]*cacheEntry // flights and answers
	stats   CacheStats               // Entries is filled in by Stats
}

// cacheKey names one query at one traffic version; arg is the target of an
// SPSP query or the k of a kNN query.
type cacheKey struct {
	knn bool
	src Vertex
	arg int
	ver uint64
}

// cacheEntry is one query's flight and then its stored answer: an SPSP route
// is a one-element slice, and ver is the traffic version the answer was
// computed at. Waiters of the flight block on done.
type cacheEntry struct {
	key    cacheKey
	done   chan struct{}
	el     *list.Element // nil while the query runs
	routes []Route
	stats  Stats
	ver    uint64
	err    error
}

// NewQueryCache builds a result cache holding at most capacity entries (at
// least one) and registers its hit/miss/coalesce/evict counters and entry
// gauge on the federation's metrics registry (fedroad_cache_*).
func (f *Federation) NewQueryCache(capacity int) *QueryCache {
	qc := &QueryCache{f: f, capacity: max(capacity, 1), lru: list.New(),
		entries: make(map[cacheKey]*cacheEntry)}
	f.reg.CounterFunc("fedroad_cache_hits_total", "queries served from the result cache", nil,
		func() float64 { return float64(qc.Stats().Hits) })
	f.reg.CounterFunc("fedroad_cache_misses_total", "queries that ran the MPC engine and populated the result cache", nil,
		func() float64 { return float64(qc.Stats().Misses) })
	f.reg.CounterFunc("fedroad_cache_coalesced_total", "queries that shared a concurrent identical query's in-flight result", nil,
		func() float64 { return float64(qc.Stats().Coalesced) })
	f.reg.CounterFunc("fedroad_cache_evicted_total", "result-cache entries evicted under capacity pressure while still current", nil,
		func() float64 { return float64(qc.Stats().EvictedCapacity) })
	f.reg.CounterFunc("fedroad_cache_evicted_stale_total", "result-cache entries evicted after a traffic update had already made them unreachable", nil,
		func() float64 { return float64(qc.Stats().EvictedStale) })
	f.reg.GaugeFunc("fedroad_cache_entries", "entries currently stored in the result cache", nil,
		func() float64 { return float64(qc.Stats().Entries) })
	return qc
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
	routes, st, ver, out, err := qc.do(cacheKey{src: src, arg: int(dst)}, func() ([]Route, Stats, uint64, error) {
		r, st, ver, err := run()
		return []Route{r}, st, ver, err
	})
	if err != nil {
		return Route{}, Stats{}, 0, out, err
	}
	return routes[0], st, ver, out, nil
}

// NearestNeighbors serves a kNN query through the cache; see ShortestPath for
// the contract. run is Session.NearestNeighborsAt (or equivalent).
func (qc *QueryCache) NearestNeighbors(src Vertex, k int,
	run func() ([]Route, Stats, uint64, error)) ([]Route, Stats, uint64, CacheOutcome, error) {
	return qc.do(cacheKey{knn: true, src: src, arg: k}, run)
}

// errFlightPanicked is what the waiters of a flight whose leader panicked
// receive.
var errFlightPanicked = errors.New("fedroad: the coalesced query panicked")

// do serves key at the federation's current traffic version, running run
// once across concurrent callers when no entry is stored. Errors are never
// cached; every waiter of a failed flight receives the leader's error. A run
// that panics fails its flight the same way (its waiters get
// errFlightPanicked) before the panic goes on up the leader's stack.
func (qc *QueryCache) do(key cacheKey, run func() ([]Route, Stats, uint64, error)) ([]Route, Stats, uint64, CacheOutcome, error) {
	key.ver = qc.f.TrafficVersion()
	qc.mu.Lock()
	if e, ok := qc.entries[key]; ok {
		if e.el != nil {
			qc.lru.MoveToFront(e.el)
			qc.stats.Hits++
			qc.mu.Unlock()
			return e.routes, e.stats, e.ver, CacheHit, nil
		}
		qc.stats.Coalesced++
		qc.mu.Unlock()
		<-e.done
		return e.routes, e.stats, e.ver, CacheCoalesced, e.err
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	qc.entries[key] = e
	qc.stats.Misses++
	qc.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			qc.mu.Lock()
			delete(qc.entries, key)
			qc.mu.Unlock()
			e.routes, e.stats, e.ver, e.err = nil, Stats{}, 0, errFlightPanicked
			close(e.done)
			panic(p)
		}
	}()
	e.routes, e.stats, e.ver, e.err = run()

	qc.mu.Lock()
	if e.err != nil {
		delete(qc.entries, key)
		e.routes, e.stats, e.ver = nil, Stats{}, 0 // a failed flight serves no result
	} else {
		e.el = qc.lru.PushFront(e)
		for qc.lru.Len() > qc.capacity {
			victim := qc.lru.Remove(qc.lru.Back()).(*cacheEntry)
			delete(qc.entries, victim.key)
			if victim.ver < key.ver {
				qc.stats.EvictedStale++
			} else {
				qc.stats.EvictedCapacity++
			}
		}
	}
	qc.mu.Unlock()
	close(e.done)
	return e.routes, e.stats, e.ver, CacheMiss, e.err
}

// Stats aggregates the cache's counters.
func (qc *QueryCache) Stats() CacheStats {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	st := qc.stats
	st.Entries = qc.lru.Len()
	return st
}
