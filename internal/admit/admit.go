// Package admit is the serving tier's admission gate. When queries arrive
// faster than the MPC layer can answer them, letting them queue without bound
// does not increase throughput — it only stretches every response time until
// the whole tier looks down. The gate bounds the number of requests in the
// system (running plus queued) and sheds the excess immediately, so admitted
// requests keep their latency and shed ones get an honest "retry later"
// instead of a timeout.
//
// The bound is prepool-aware: when the preprocessing pool that feeds
// protocol-mode comparisons runs dry (no 64-lane randomness block buffered),
// every admitted query is slower (it pays the offline phase online), so the
// same queue length represents more wall time. The gate halves its effective
// limit while the pool is empty, shedding earlier exactly when queries are at
// their slowest.
package admit

import (
	"errors"
	"sync/atomic"
)

// ErrShed is returned by Acquire when the request is refused. HTTP servers
// map it to 429 Too Many Requests with a Retry-After hint.
var ErrShed = errors.New("admit: overloaded, request shed")

// Gate bounds in-system requests. The zero value is not usable; call New.
type Gate struct {
	limit     int64      // max in-system (running + queued); <= 0 = unlimited
	poolDepth func() int // prepool depth in buffered blocks; nil = no prepool
	depth     atomic.Int64
	admitted  atomic.Int64
	shed      atomic.Int64
}

// Stats is a point-in-time view of the gate's accounting. Admitted + Shed
// equals the number of Acquire calls ever made — the invariant the soak
// bench checks.
type Stats struct {
	Admitted int64
	Shed     int64
	Depth    int64 // requests currently in the system
	Limit    int64 // configured bound (0 = unlimited)
}

// New builds a gate admitting at most limit concurrent requests (<= 0 means
// unlimited — the gate only counts). poolDepth, when non-nil, reports the
// preprocessing pool's buffered block count; a dry pool halves the effective
// limit.
func New(limit int, poolDepth func() int) *Gate {
	return &Gate{limit: int64(limit), poolDepth: poolDepth}
}

// Acquire admits the request or sheds it with ErrShed. Every admitted
// request must Release exactly once.
func (g *Gate) Acquire() error {
	lim := g.limit
	if lim > 0 && g.poolDepth != nil && g.poolDepth() == 0 {
		if lim = (lim + 1) / 2; lim < 1 {
			lim = 1
		}
	}
	for {
		d := g.depth.Load()
		if lim > 0 && d >= lim {
			g.shed.Add(1)
			return ErrShed
		}
		if g.depth.CompareAndSwap(d, d+1) {
			g.admitted.Add(1)
			return nil
		}
	}
}

// Release returns an admitted request's slot.
func (g *Gate) Release() { g.depth.Add(-1) }

// Stats reports the gate's accounting.
func (g *Gate) Stats() Stats {
	return Stats{
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
		Depth:    g.depth.Load(),
		Limit:    g.limit,
	}
}
