// Package transport provides the party-to-party messaging substrate for the
// MPC engine. Two implementations exist: an in-process network with exact
// byte/message accounting (used by tests and the benchmark harness) and a
// real TCP mesh over the standard library's net package (used by the
// multi-process federation example and integration tests).
//
// The paper runs silos on separate machines connected by a LAN; the paper's
// own cost model for a secure comparison is R·(L + S/B) with R communication
// rounds, S bytes per round, latency L and bandwidth B (§VIII-B). The
// in-process network records R and S exactly so the harness can apply that
// model with configurable L and B.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Conn is one party's endpoint into the network. Party IDs are dense in
// [0, N). Send and Recv between a fixed (from, to) pair are FIFO-ordered;
// messages between different pairs are independent.
//
// A Conn may be used by a single goroutine at a time.
type Conn interface {
	// Party returns this endpoint's party ID.
	Party() int
	// N returns the number of parties in the network.
	N() int
	// Send transmits data to party `to`. The data slice is not retained.
	Send(to int, data []byte) error
	// Recv blocks until a message from party `from` arrives.
	Recv(from int) ([]byte, error)
	// Close releases the endpoint. Pending Recvs fail afterwards.
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrRoundTimeout is returned (wrapped) when a Send or Recv exceeds the
// endpoint's configured per-round timeout: the peer is slow or dead, but the
// endpoint itself may still be usable. Callers decide whether to retry the
// round or tear the session down.
var ErrRoundTimeout = errors.New("transport: round timeout")

// ErrTransient tags injected or environmental faults that a bounded retry of
// the protocol round may clear (in contrast to ErrClosed, which is final).
var ErrTransient = errors.New("transport: transient fault")

// Transient reports whether err is worth retrying at the protocol-round
// level: explicit transient faults and timeouts (a slow peer may catch up on
// the next round) qualify; closed endpoints and structural errors do not.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, ErrRoundTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// IsTimeout reports whether err stems from a per-round deadline expiring —
// either the in-process ErrRoundTimeout or a net.Error deadline on a real
// socket.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrRoundTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Stats aggregates traffic over a network. Counters are totals across all
// parties (every byte is counted once, at the sender).
type Stats struct {
	Bytes    int64 // payload bytes sent
	Messages int64 // messages sent
}

// Mem is an in-process network of N parties backed by buffered channels,
// with atomic traffic accounting. Delivery is immediate.
type Mem struct {
	n      int
	chans  [][]chan []byte // chans[from][to]
	closed []atomic.Bool
	bytes  atomic.Int64
	msgs   atomic.Int64
}

// NewMem creates an in-process network for n parties.
func NewMem(n int) *Mem {
	if n < 2 {
		panic("transport: need at least 2 parties")
	}
	m := &Mem{n: n, chans: make([][]chan []byte, n), closed: make([]atomic.Bool, n)}
	for i := range m.chans {
		m.chans[i] = make([]chan []byte, n)
		for j := range m.chans[i] {
			if i != j {
				m.chans[i][j] = make(chan []byte, 1024)
			}
		}
	}
	return m
}

// Drain discards every buffered in-flight message. Protocol-round retry uses
// this between attempts: a failed round can leave stale frames mid-stream,
// and replaying against them would desynchronize every later round. Callers
// must ensure no party goroutine is mid-protocol when draining.
func (m *Mem) Drain() {
	for i := range m.chans {
		for j, ch := range m.chans[i] {
			if i == j {
				continue
			}
			drainChan(ch)
		}
	}
}

func drainChan(ch chan []byte) {
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

// Stats returns a snapshot of total traffic.
func (m *Mem) Stats() Stats {
	return Stats{Bytes: m.bytes.Load(), Messages: m.msgs.Load()}
}

// ResetStats zeroes the traffic counters.
func (m *Mem) ResetStats() {
	m.bytes.Store(0)
	m.msgs.Store(0)
}

// Conn returns party p's endpoint.
func (m *Mem) Conn(p int) Conn {
	if p < 0 || p >= m.n {
		panic(fmt.Sprintf("transport: party %d out of range [0,%d)", p, m.n))
	}
	return &memConn{net: m, id: p}
}

type memConn struct {
	net       *Mem
	id        int
	timeoutNs atomic.Int64 // per-Recv wait bound, nanoseconds (0 = none)
}

// SetRoundTimeout bounds how long a Recv on this endpoint waits for a frame
// to arrive (0 disables the bound). An expired wait fails with a wrapped
// ErrRoundTimeout instead of blocking forever, so one dead party degrades a
// protocol round into a clean error at its peers.
func (c *memConn) SetRoundTimeout(d time.Duration) { c.timeoutNs.Store(int64(d)) }

func (c *memConn) Party() int { return c.id }
func (c *memConn) N() int     { return c.net.n }

func (c *memConn) Send(to int, data []byte) error {
	if c.net.closed[c.id].Load() {
		return ErrClosed
	}
	if to == c.id || to < 0 || to >= c.net.n {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.net.bytes.Add(int64(len(data)))
	c.net.msgs.Add(1)
	c.net.chans[c.id][to] <- cp
	return nil
}

func (c *memConn) Recv(from int) ([]byte, error) {
	if from == c.id || from < 0 || from >= c.net.n {
		return nil, fmt.Errorf("transport: invalid source %d", from)
	}
	var msg []byte
	var ok bool
	if to := time.Duration(c.timeoutNs.Load()); to > 0 {
		timer := time.NewTimer(to)
		defer timer.Stop()
		select {
		case msg, ok = <-c.net.chans[from][c.id]:
		case <-timer.C:
			return nil, fmt.Errorf("transport: recv from %d: %w", from, ErrRoundTimeout)
		}
	} else {
		msg, ok = <-c.net.chans[from][c.id]
	}
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

func (c *memConn) Close() error {
	if c.net.closed[c.id].CompareAndSwap(false, true) {
		for to := 0; to < c.net.n; to++ {
			if to != c.id {
				close(c.net.chans[c.id][to])
			}
		}
	}
	return nil
}
