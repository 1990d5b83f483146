package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fed"
)

// goid parses the current goroutine's id out of its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _ := strconv.Atoi(string(bytes.Fields(buf)[1]))
	return id
}

// scriptCmp is a plaintext comparator (a[0] < b[0]) that records the shape
// of every call: its width and calling goroutine.
// After failAfter calls it turns sticky: all-false bits and a non-nil Err,
// like a poisoned Fed-SAC handle.
type scriptCmp struct {
	widths    []int
	pairs     [][2]fed.Partial
	gids      map[int]bool
	failAfter int
}

func (s *scriptCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	if s.gids == nil {
		s.gids = map[int]bool{}
	}
	s.gids[goid()] = true
	s.widths = append(s.widths, len(pairs))
	s.pairs = append(s.pairs, pairs...)
	out := make([]bool, len(pairs))
	if s.Err() != nil {
		return out
	}
	for i, pr := range pairs {
		out[i] = pr[0][0] < pr[1][0]
	}
	return out
}

func (s *scriptCmp) Err() error {
	if s.failAfter > 0 && len(s.widths) > s.failAfter {
		return errors.New("scripted failure")
	}
	return nil
}

func pair(a, b int64) [2]fed.Partial { return [2]fed.Partial{{a}, {b}} }

// less compares a lone pair through c: an instance of one.
func less(c comparator, a, b int64) bool { return c.LessBatch([][2]fed.Partial{pair(a, b)})[0] }

// waitGoroutines fails unless the goroutine count returns to base: a thread
// has reported done an instant before it exits, so allow it that instant.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines alive after lockstep returned, %d before", n, base)
	}
}

// compares issues ticks lone compares tagged with the thread's id (id vs
// id+tick parity decides the bit) and reports whether every answer was the
// thread's own.
func compares(id int64, ticks int, ok *bool) func(comparator) {
	return func(c comparator) {
		*ok = true
		for i := 0; i < ticks; i++ {
			want := i%2 == 0
			b := id - 1
			if want {
				b = id + 1
			}
			if less(c, id, b) != want {
				*ok = false
			}
		}
	}
}

func TestLockstepCoalescesTicksInThreadOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := &scriptCmp{}
	var ok [3]bool
	idle := false
	lockstep(inner, nil,
		compares(100, 3, &ok[0]),
		func(comparator) { idle = true }, // issues no compare
		compares(200, 1, &ok[1]),
		func(c comparator) { // a batch of two, then a lone pair
			r := c.LessBatch([][2]fed.Partial{pair(300, 301), pair(301, 300)})
			ok[2] = r[0] && !r[1] && len(c.LessBatch(nil)) == 0 && !less(c, 5, 5)
		},
	)
	waitGoroutines(t, base)
	if !ok[0] || !ok[1] || !ok[2] || !idle {
		t.Fatalf("threads got foreign bits or did not run: %v idle=%v", ok, idle)
	}
	// Tick 1: threads 0, 2, 3 → width 1+1+2; tick 2: threads 0, 3 → 2;
	// tick 3: thread 0 alone → an instance of one.
	if want := []int{4, 2, 1}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v (one per tick)", inner.widths, want)
	}
	wantOrder := []int64{100, 200, 300, 301, 100, 5, 100}
	for i, pr := range inner.pairs {
		if pr[0][0] != wantOrder[i] {
			t.Fatalf("pair %d of the transcript is thread value %d, want %d (thread order)", i, pr[0][0], wantOrder[i])
		}
	}
	if len(inner.gids) != 1 || !inner.gids[goid()] {
		t.Fatalf("inner called from goroutines %v, want only the caller's %d", inner.gids, goid())
	}
}

func TestLockstepNestsTwoDeep(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := &scriptCmp{}
	var ok [5]bool
	lockstep(inner, nil,
		compares(10, 4, &ok[0]),
		func(c comparator) {
			if !less(c, 1, 2) { // tick 1, alone on this level
				return
			}
			lockstep(c, nil, // ticks 2..4: two children, the second a gang of two itself
				compares(20, 2, &ok[1]),
				func(c comparator) {
					lockstep(c, nil, compares(30, 3, &ok[2]), compares(40, 1, &ok[3]))
				},
			)
			ok[4] = less(c, 1, 2) // after the nested gang: tick 5
		},
	)
	waitGoroutines(t, base)
	for i, o := range ok {
		if !o {
			t.Fatalf("thread %d got foreign bits or did not finish: %v", i, ok)
		}
	}
	// Tick by tick: {10, 1}, {10, 20, 30, 40}, {10, 20, 30}, {10, 30}, {1}.
	if want := []int{2, 4, 3, 2, 1}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v", inner.widths, want)
	}
	if len(inner.gids) != 1 || !inner.gids[goid()] {
		t.Fatalf("nested gangs called inner from goroutines %v, want only the caller's", inner.gids)
	}
}

func TestLockstepSingleThreadRunsInline(t *testing.T) {
	inner := &scriptCmp{}
	lockstep(inner, nil, func(c comparator) {
		if c != comparator(inner) {
			t.Error("a gang of one should compare on inner directly")
		}
	})
	lockstep(inner, nil) // a gang of none returns
}

// TestLockstepTerminatesAfterStickyError: once inner fails, bits are all
// false and Err is set; every thread must still run to its end so lockstep
// returns and no goroutine is left behind.
func TestLockstepTerminatesAfterStickyError(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := &scriptCmp{failAfter: 2}
	var sawErr bool
	var ok [2]bool
	lockstep(inner, nil,
		compares(10, 6, &ok[0]),
		func(c comparator) {
			lockstep(c, nil, compares(20, 4, &ok[1]), func(c comparator) {
				for i := 0; i < 5; i++ {
					c.LessBatch([][2]fed.Partial{pair(1, 2), pair(3, 4)})
				}
				sawErr = c.Err() != nil
			})
		},
	)
	waitGoroutines(t, base)
	if len(inner.widths) != 6 {
		t.Fatalf("%d inner calls, want 6: the longest thread's ticks", len(inner.widths))
	}
	if !sawErr || ok[0] || ok[1] {
		t.Fatalf("threads did not observe the failure: err seen %v, answers still right %v", sawErr, ok)
	}
}

// TestLockstepRunsOneThreadAtATime: between ticks the coordinator resumes
// one thread at a time, nested gangs within their parent's turn, so no two
// threads ever run at once — each holds an in-flight count across a sleep
// before every compare, and the count never exceeds one.
func TestLockstepRunsOneThreadAtATime(t *testing.T) {
	base := runtime.NumGoroutine()
	var inFlight, most atomic.Int32
	work := func(c comparator) {
		for i := 0; i < 3; i++ {
			n := inFlight.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			less(c, 1, 2)
		}
	}
	lockstep(&scriptCmp{}, nil, work, work, func(c comparator) { lockstep(c, nil, work, work) }, work)
	waitGoroutines(t, base)
	if m := most.Load(); m != 1 {
		t.Fatalf("%d threads ran at once between ticks, want 1", m)
	}
}

// TestLockstepParkWaitsOneTick: a parked thread sits out exactly the next
// tick, adding no pair to it, and resumes in its turn after it; a gang whose
// only live thread parks runs no instance for that tick.
func TestLockstepParkWaitsOneTick(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := &scriptCmp{}
	var ok [2]bool
	lockstep(inner, nil,
		compares(100, 3, &ok[0]),
		func(c comparator) {
			first := less(c, 200, 201) // tick 1
			park(c)                    // tick 2, thread 0 alone
			ok[1] = first && !less(c, 201, 200)
		},
	)
	waitGoroutines(t, base)
	if !ok[0] || !ok[1] {
		t.Fatalf("threads got foreign bits: %v", ok)
	}
	if want := []int{2, 1, 2}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v: the park adds no pair to tick 2", inner.widths, want)
	}
	if want := []int64{100, 200, 100, 100, 201}; !reflect.DeepEqual(firsts(inner.pairs), want) {
		t.Fatalf("transcript %v, want %v", firsts(inner.pairs), want)
	}

	inner = &scriptCmp{}
	lockstep(inner, nil,
		func(c comparator) { less(c, 1, 2) },
		func(c comparator) { park(c); park(c); less(c, 3, 4) }, // the second park is alone
	)
	waitGoroutines(t, base)
	if want := []int{1, 1}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v: a tick of parks alone runs no instance", inner.widths, want)
	}
}

// firsts lists the first value of every pair's first key.
func firsts(pairs [][2]fed.Partial) []int64 {
	out := make([]int64, len(pairs))
	for i, pr := range pairs {
		out[i] = pr[0][0]
	}
	return out
}
