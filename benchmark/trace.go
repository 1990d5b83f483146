package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/transport"
)

// tracer is the traced run's instrumentation, all of it in the benchmark's
// own files: a timing Config.TransportWrap at the mpc->transport boundary and
// timers around the calls into each layer. A nil tracer is the untraced run:
// no wrap is installed and no extra timer runs.
//
// The wrap's timers are gated by a flag per session, so one process measures
// the same ops with tracing off and on (trace.overhead_ratio).
type tracer struct {
	mu      sync.Mutex
	capture *traceTarget // receives conns created while a session is opened

	// shared gates and sums every party-0 endpoint no session owns: the cost
	// source of ops that fork engines of their own (index customization).
	shared traceTarget
}

// traceTarget is what a client's ops are charged to: the party-0 endpoint's
// totals and the flag that turns its endpoints' timers on.
type traceTarget struct {
	on                     atomic.Bool
	sendNs, recvNs, frames atomic.Int64
}

type connSnap struct{ sendNs, recvNs, frames int64 }

func (c *traceTarget) snap() connSnap {
	return connSnap{c.sendNs.Load(), c.recvNs.Load(), c.frames.Load()}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{a.sendNs - b.sendNs, a.recvNs - b.recvNs, a.frames - b.frames}
}

// timedConn times Send and Recv of one party endpoint while its target's flag
// is on. Only party 0's time is kept: the parties run the same protocol in
// lockstep, and one party's view is what a silo operator would see.
type timedConn struct {
	transport.Conn
	to *traceTarget
}

func (c *timedConn) Send(to int, data []byte) error {
	if c.Party() != 0 || !c.to.on.Load() {
		return c.Conn.Send(to, data)
	}
	t0 := time.Now()
	err := c.Conn.Send(to, data)
	c.to.sendNs.Add(int64(time.Since(t0)))
	c.to.frames.Add(1)
	return err
}

func (c *timedConn) Recv(from int) ([]byte, error) {
	if c.Party() != 0 || !c.to.on.Load() {
		return c.Conn.Recv(from)
	}
	t0 := time.Now()
	b, err := c.Conn.Recv(from)
	c.to.recvNs.Add(int64(time.Since(t0)))
	return b, err
}

// wrap returns the Config.TransportWrap to install (nil when untraced).
func (tr *tracer) wrap() func(int, transport.Conn) transport.Conn {
	if tr == nil {
		return nil
	}
	return func(_ int, c transport.Conn) transport.Conn {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if tr.capture != nil {
			return &timedConn{Conn: c, to: tr.capture}
		}
		return &timedConn{Conn: c, to: &tr.shared}
	}
}

// openSession opens a session whose endpoints are charged to a target of
// their own. Sessions are opened one at a time, during set-up.
func (tr *tracer) openSession(f *fedroad.Federation) (*fedroad.Session, *traceTarget) {
	if tr == nil {
		return f.Session(), nil
	}
	to := &traceTarget{}
	tr.mu.Lock()
	tr.capture = to
	tr.mu.Unlock()
	s := f.Session()
	tr.mu.Lock()
	tr.capture = nil
	tr.mu.Unlock()
	return s, to
}

// span is one interval of the trace file. Aggregate spans sum many short
// intervals inside their parent (every Fed-SAC of a query, every Send of a
// session); they start where the parent starts and carry the summed time.
type span struct {
	ID        string  `json:"id"`
	Parent    string  `json:"parent,omitempty"`
	Op        string  `json:"op"` // shared by all spans of one operation
	Name      string  `json:"name"`
	StartMs   float64 `json:"start_ms"` // since the window opened
	DurMs     float64 `json:"dur_ms"`
	Aggregate bool    `json:"aggregate,omitempty"`
}

// spansOf turns one traced op into its span tree:
//
//	op
//	├─ admit.acquire
//	└─ cache.do                 (route_hot only)
//	   └─ session.query
//	      ├─ core.queue   (agg)   includes the Fed-SACs the queue triggers
//	      ├─ core.relax   (agg)
//	      └─ mpc.sac      (agg)   overlaps core.queue, see README
//	         ├─ transport.send (agg, party 0)
//	         └─ transport.recv (agg, party 0)
func spansOf(workload string, client int, s sample) []span {
	op := fmt.Sprintf("%s/%d/%d", workload, client, s.index)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	start := ms(s.end - s.dur)
	out := []span{{ID: op, Op: op, Name: s.kind, StartMs: start, DurMs: ms(s.dur)}}
	add := func(name, parent string, startMs float64, d time.Duration, agg bool) string {
		id := op + "/" + name
		out = append(out, span{ID: id, Parent: parent, Op: op, Name: name, StartMs: startMs, DurMs: ms(d), Aggregate: agg})
		return id
	}
	parent := op
	if s.cacheDo > 0 {
		parent = add("cache.do", op, start, s.cacheDo, false)
	}
	if s.query == 0 {
		return out // a cache hit
	}
	if s.acquire > 0 {
		add("admit.acquire", parent, start, s.acquire, false)
	}
	qStart := start + ms(s.acquire)
	q := add("session.query", parent, qStart, s.query, false)
	add("core.queue", q, qStart, s.stats.Phases.Queue, true)
	add("core.relax", q, qStart, s.stats.Phases.Relax, true)
	sac := add("mpc.sac", q, qStart, s.stats.Phases.SACWait, true)
	add("transport.send", sac, qStart, time.Duration(s.conn.sendNs), true)
	add("transport.recv", sac, qStart, time.Duration(s.conn.recvNs), true)
	return out
}

// writeTrace writes the spans kept in memory; called once, at exit.
func writeTrace(dir, workload string, env envelope, clients [][]sample) (string, error) {
	var spans []span
	for c, ss := range clients {
		for _, s := range ss {
			if s.traced {
				spans = append(spans, spansOf(workload, c, s)...)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Envelope envelope `json:"envelope"`
		Spans    []span   `json:"spans"`
	}{env, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
