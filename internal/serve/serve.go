// Package serve is the serving path, written once: every query a front door
// answers — fedserver's /route and /knn, the soak — goes through one Pipeline
// and therefore through one order of steps:
//
//	cache lookup → singleflight leader → admission gate → concurrency bound
//	→ a query session opened for this request → the query under the
//	federation's read lock, at the traffic version it echoes → cache fill
//
// A cache hit or a coalesced waiter stops at the first step: it takes no
// admission slot, opens no session and runs no protocol round. Only the
// flight leader is admitted, so Admitted + Shed counts leader attempts. A
// shed leader fails with ErrShed, which (like every error) is never cached.
//
// A session lives exactly as long as its request. Opening one costs
// microseconds against tens of milliseconds of Fed-SAC rounds (EXPERIMENTS.md,
// "Session per request"), so nothing is pooled: a session poisoned by a dead
// silo dies with the request that found out (ErrSessionPoisoned), and the
// next request opens a fresh one over whatever links are up by then.
package serve

import (
	"runtime"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/admit"
)

// ErrShed is the error of a request refused by the admission gate. HTTP
// servers map it to 429 with Pipeline.RetryAfterSec as the hint.
var ErrShed = admit.ErrShed

// Pipeline serves queries over one federation. It is safe for concurrent use.
type Pipeline struct {
	fed *fedroad.Federation
	// sem bounds RUNNING queries and blocks the excess; gate, taken first,
	// bounds the whole in-system population (running + blocked on sem) and
	// sheds beyond it, so a shed request never blocks.
	sem   chan struct{}
	gate  *admit.Gate
	cache *fedroad.QueryCache // nil = every request runs its query

	// ewmaMicros is a decaying average of query wall time, the service rate
	// behind the Retry-After hint.
	ewmaMicros atomic.Int64
}

// Meta is what a served answer reports besides its routes.
type Meta struct {
	// Stats are the computing query's cost counters: a hit or a coalesced
	// waiter replays them, having spent nothing itself.
	Stats fedroad.Stats
	// Version is the traffic version the answer was computed at, captured
	// under the query's own read lock.
	Version uint64
	// Outcome tells a hit and a coalesced waiter from the request that ran
	// the query (CacheMiss — also every request of a pipeline without a
	// cache). It is set on errors too: the shed or failed leader is a miss.
	Outcome fedroad.CacheOutcome
}

// Stats is a point-in-time view of the pipeline's accounting.
type Stats struct {
	MaxConcurrent int
	// Admission is the gate's accounting. Every admitted request runs its
	// query on a session of its own, so Admitted is also the number of
	// queries run (and sessions opened).
	Admission admit.Stats
	Cache     *fedroad.CacheStats // nil without a cache
}

// New builds the pipeline: at most maxConcurrent queries run at once (<= 0
// selects 4×GOMAXPROCS); with maxQueue > 0 at most maxQueue more may wait and
// the rest are shed (0 = wait without bound, shed nothing); cacheEntries > 0
// puts a traffic-version-keyed result cache of that capacity in front. With a
// preprocessing pool configured the gate halves its limit while the pool is
// dry — every admitted query is then at its slowest. Admission and cache
// counters are registered on the federation's metrics registry.
func New(fed *fedroad.Federation, maxConcurrent, maxQueue, cacheEntries int) *Pipeline {
	if maxConcurrent <= 0 {
		maxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	limit := 0
	if maxQueue > 0 {
		limit = maxConcurrent + maxQueue
	}
	var poolDepth func() int
	if fed.HasPool() {
		poolDepth = func() int { return int(fed.PoolStats().Buffered) }
	}
	p := &Pipeline{
		fed:  fed,
		sem:  make(chan struct{}, maxConcurrent),
		gate: admit.New(limit, poolDepth),
	}
	if cacheEntries > 0 {
		p.cache = fed.NewQueryCache(cacheEntries)
	}
	reg := fed.Metrics()
	reg.CounterFunc("fedserver_admitted_total", "queries admitted past the admission gate", nil,
		func() float64 { return float64(p.gate.Stats().Admitted) })
	reg.CounterFunc("fedserver_shed_total", "queries shed by the admission gate (429)", nil,
		func() float64 { return float64(p.gate.Stats().Shed) })
	reg.GaugeFunc("fedserver_queue_depth", "queries in the system (running + queued)", nil,
		func() float64 { return float64(p.gate.Stats().Depth) })
	reg.GaugeFunc("fedserver_max_concurrent", "in-flight query bound", nil,
		func() float64 { return float64(maxConcurrent) })
	return p
}

// batched is how every served query schedules its comparisons: independent
// ones share protocol instances — same comparisons and answer, about half the
// rounds.
var batched = fedroad.QueryOptions{BatchedMPC: true}

// Route answers a shortest-path query.
func (p *Pipeline) Route(src, dst fedroad.Vertex) (fedroad.Route, Meta, error) {
	return serve(p,
		func(s *fedroad.Session) (fedroad.Route, fedroad.Stats, uint64, error) {
			return s.ShortestPathAt(src, dst, batched)
		},
		func(run func() (fedroad.Route, fedroad.Stats, uint64, error)) (fedroad.Route, fedroad.Stats, uint64, fedroad.CacheOutcome, error) {
			return p.cache.ShortestPath(src, dst, batched, run)
		})
}

// KNN answers a k-nearest-neighbours query; all k routes come out of one
// Fed-SSSP run, whose cost Meta.Stats reports once.
func (p *Pipeline) KNN(src fedroad.Vertex, k int) ([]fedroad.Route, Meta, error) {
	return serve(p,
		func(s *fedroad.Session) ([]fedroad.Route, fedroad.Stats, uint64, error) {
			return s.NearestNeighborsAt(src, k, batched)
		},
		func(run func() ([]fedroad.Route, fedroad.Stats, uint64, error)) ([]fedroad.Route, fedroad.Stats, uint64, fedroad.CacheOutcome, error) {
			return p.cache.NearestNeighbors(src, k, batched, run)
		})
}

// serve is the one composition. query runs on this request's session;
// cached wraps run in the result cache's lookup for this request's key and
// is only called when the pipeline has a cache.
func serve[T any](p *Pipeline,
	query func(*fedroad.Session) (T, fedroad.Stats, uint64, error),
	cached func(run func() (T, fedroad.Stats, uint64, error)) (T, fedroad.Stats, uint64, fedroad.CacheOutcome, error),
) (T, Meta, error) {
	run := func() (res T, st fedroad.Stats, ver uint64, err error) {
		if err = p.gate.Acquire(); err != nil {
			return
		}
		defer p.gate.Release()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		sess := p.fed.Session()
		defer sess.Close()
		start := time.Now()
		res, st, ver, err = query(sess)
		p.observeLatency(time.Since(start))
		return
	}
	if p.cache == nil {
		res, st, ver, err := run()
		return res, Meta{Stats: st, Version: ver, Outcome: fedroad.CacheMiss}, err
	}
	res, st, ver, out, err := cached(run)
	return res, Meta{Stats: st, Version: ver, Outcome: out}, err
}

// observeLatency folds one query's wall time into the decaying average
// (alpha 1/8; lossy racing updates are fine for a hint).
func (p *Pipeline) observeLatency(d time.Duration) {
	us := d.Microseconds()
	old := p.ewmaMicros.Load()
	if old == 0 {
		p.ewmaMicros.Store(us)
		return
	}
	p.ewmaMicros.Store(old + (us-old)/8)
}

// RetryAfterSec estimates when a shed client should retry: the current
// backlog divided by the service rate, clamped to [1s, 30s].
func (p *Pipeline) RetryAfterSec() int {
	sec := p.gate.Stats().Depth * p.ewmaMicros.Load() / int64(cap(p.sem)) / 1e6
	return int(min(max(sec, 1), 30))
}

// HasCache reports whether a result cache fronts the pipeline, i.e. whether
// Meta.Outcome distinguishes anything.
func (p *Pipeline) HasCache() bool { return p.cache != nil }

// Stats reports the pipeline's accounting.
func (p *Pipeline) Stats() Stats {
	st := Stats{MaxConcurrent: cap(p.sem), Admission: p.gate.Stats()}
	if p.cache != nil {
		cs := p.cache.Stats()
		st.Cache = &cs
	}
	return st
}
