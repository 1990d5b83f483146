package transport

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// FaultKind names one injectable transport fault.
type FaultKind int

const (
	// FaultNone passes the operation through untouched.
	FaultNone FaultKind = iota
	// FaultDelay sleeps Plan.Delay before performing the operation — a slow
	// peer or congested link.
	FaultDelay
	// FaultDrop silently swallows a Send: the peer never sees the frame and
	// must rely on its round timeout. Ignored on Recv.
	FaultDrop
	// FaultDuplicate sends the frame twice, desynchronizing the FIFO stream —
	// a retransmitting middlebox. Ignored on Recv.
	FaultDuplicate
	// FaultError fails the operation with a wrapped ErrTransient; the
	// endpoint stays open.
	FaultError
	// FaultClose closes the underlying endpoint mid-round and fails the
	// operation — a crashed party. Subsequent operations fail with the inner
	// endpoint's closed error.
	FaultClose
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultError:
		return "error"
	case FaultClose:
		return "close"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultPlan is a seeded schedule of faults for one endpoint. When Script is
// non-nil, operation i (counting Sends and Recvs together, after skipping the
// first After operations) suffers Script[i] and operations past the end pass
// through — fully deterministic, for targeted regression tests. Otherwise
// each operation independently draws one fault from the probabilities, using
// a PRNG seeded by Seed — deterministic chaos for randomized soak tests.
type FaultPlan struct {
	Seed   uint64
	After  int         // clean operations before any fault is considered
	Script []FaultKind // explicit per-operation schedule (overrides probabilities)

	// Per-operation probabilities, each in [0,1]; evaluated in this order.
	PDelay, PDrop, PDuplicate, PError, PClose float64

	Delay time.Duration // sleep applied by FaultDelay (default 1ms)
}

// FaultConn wraps a Conn with fault injection governed by a FaultPlan. It is
// the chaos-testing harness for the real-network path: protocol code runs
// unmodified while the wrapper drops, delays, duplicates, errors or kills the
// link on a reproducible schedule.
//
// Like any Conn, a FaultConn is driven by one goroutine at a time; the
// internal mutex only makes the injection log safely readable from the test
// goroutine after the protocol run.
type FaultConn struct {
	inner Conn
	plan  FaultPlan
	rng   *rand.Rand

	mu       sync.Mutex
	ops      int
	injected []FaultKind // log of non-FaultNone injections, in order
}

// NewFaultConn wraps inner with the given plan.
func NewFaultConn(inner Conn, plan FaultPlan) *FaultConn {
	if plan.Delay == 0 {
		plan.Delay = time.Millisecond
	}
	return &FaultConn{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewPCG(plan.Seed, 0x6b796368616f73)),
	}
}

// next draws the fault for the current operation and advances the schedule.
func (f *FaultConn) next() FaultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.ops
	f.ops++
	if op < f.plan.After {
		return FaultNone
	}
	var k FaultKind
	if f.plan.Script != nil {
		if i := op - f.plan.After; i < len(f.plan.Script) {
			k = f.plan.Script[i]
		}
	} else {
		r := f.rng.Float64()
		switch {
		case r < f.plan.PDelay:
			k = FaultDelay
		case r < f.plan.PDelay+f.plan.PDrop:
			k = FaultDrop
		case r < f.plan.PDelay+f.plan.PDrop+f.plan.PDuplicate:
			k = FaultDuplicate
		case r < f.plan.PDelay+f.plan.PDrop+f.plan.PDuplicate+f.plan.PError:
			k = FaultError
		case r < f.plan.PDelay+f.plan.PDrop+f.plan.PDuplicate+f.plan.PError+f.plan.PClose:
			k = FaultClose
		}
	}
	if k != FaultNone {
		f.injected = append(f.injected, k)
	}
	return k
}

// Injected returns the log of injected faults so far, in order.
func (f *FaultConn) Injected() []FaultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FaultKind, len(f.injected))
	copy(out, f.injected)
	return out
}

// Ops returns how many operations (Sends + Recvs) have passed through.
func (f *FaultConn) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

func (f *FaultConn) Party() int { return f.inner.Party() }
func (f *FaultConn) N() int     { return f.inner.N() }

// Send injects the scheduled fault, then forwards to the inner endpoint.
func (f *FaultConn) Send(to int, data []byte) error {
	switch f.next() {
	case FaultDelay:
		time.Sleep(f.plan.Delay)
	case FaultDrop:
		return nil // swallowed: the peer must time the round out
	case FaultDuplicate:
		if err := f.inner.Send(to, data); err != nil {
			return err
		}
	case FaultError:
		return fmt.Errorf("transport: injected send fault to %d: %w", to, ErrTransient)
	case FaultClose:
		f.inner.Close()
		return fmt.Errorf("transport: injected close during send to %d: %w", to, ErrClosed)
	}
	return f.inner.Send(to, data)
}

// Recv injects the scheduled fault, then forwards to the inner endpoint.
// Drop and duplicate are send-side faults and pass through.
func (f *FaultConn) Recv(from int) ([]byte, error) {
	switch f.next() {
	case FaultDelay:
		time.Sleep(f.plan.Delay)
	case FaultError:
		return nil, fmt.Errorf("transport: injected recv fault from %d: %w", from, ErrTransient)
	case FaultClose:
		f.inner.Close()
		return nil, fmt.Errorf("transport: injected close during recv from %d: %w", from, ErrClosed)
	}
	return f.inner.Recv(from)
}

// Close closes the inner endpoint.
func (f *FaultConn) Close() error { return f.inner.Close() }
