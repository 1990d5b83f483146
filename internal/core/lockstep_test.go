package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
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
// of every call: its width (0 marks a scalar Less) and calling goroutine.
// After failAfter calls it turns sticky: all-false bits and a non-nil Err,
// like a poisoned Fed-SAC handle.
type scriptCmp struct {
	widths    []int
	pairs     [][2]fed.Partial
	gids      map[int]bool
	failAfter int
}

func (s *scriptCmp) call(width int, pairs [][2]fed.Partial) []bool {
	if s.gids == nil {
		s.gids = map[int]bool{}
	}
	s.gids[goid()] = true
	s.widths = append(s.widths, width)
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

func (s *scriptCmp) Less(a, b fed.Partial) bool {
	return s.call(0, [][2]fed.Partial{{a, b}})[0]
}
func (s *scriptCmp) LessBatch(pairs [][2]fed.Partial) []bool { return s.call(len(pairs), pairs) }
func (s *scriptCmp) Err() error {
	if s.failAfter > 0 && len(s.widths) > s.failAfter {
		return errors.New("scripted failure")
	}
	return nil
}

func pair(a, b int64) [2]fed.Partial { return [2]fed.Partial{{a}, {b}} }

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

// compares issues ticks scalar compares tagged with the thread's id (id vs
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
			if c.Less(fed.Partial{id}, fed.Partial{b}) != want {
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
	lockstep(inner,
		compares(100, 3, &ok[0]),
		func(comparator) { idle = true }, // issues no compare
		compares(200, 1, &ok[1]),
		func(c comparator) { // a batch of two, then a scalar
			r := c.LessBatch([][2]fed.Partial{pair(300, 301), pair(301, 300)})
			ok[2] = r[0] && !r[1] && len(c.LessBatch(nil)) == 0 && !c.Less(fed.Partial{5}, fed.Partial{5})
		},
	)
	waitGoroutines(t, base)
	if !ok[0] || !ok[1] || !ok[2] || !idle {
		t.Fatalf("threads got foreign bits or did not run: %v idle=%v", ok, idle)
	}
	// Tick 1: threads 0, 2, 3 → width 1+1+2; tick 2: threads 0, 3 → 2;
	// tick 3: thread 0 alone → the scalar instance.
	if want := []int{4, 2, 0}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v (one per tick, Less for a lone pair)", inner.widths, want)
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
	lockstep(inner,
		compares(10, 4, &ok[0]),
		func(c comparator) {
			if !c.Less(fed.Partial{1}, fed.Partial{2}) { // tick 1, alone on this level
				return
			}
			lockstep(c, // ticks 2..4: two children, the second a gang of two itself
				compares(20, 2, &ok[1]),
				func(c comparator) {
					lockstep(c, compares(30, 3, &ok[2]), compares(40, 1, &ok[3]))
				},
			)
			ok[4] = c.Less(fed.Partial{1}, fed.Partial{2}) // after the nested gang: tick 5
		},
	)
	waitGoroutines(t, base)
	for i, o := range ok {
		if !o {
			t.Fatalf("thread %d got foreign bits or did not finish: %v", i, ok)
		}
	}
	// Tick by tick: {10, 1}, {10, 20, 30, 40}, {10, 20, 30}, {10, 30}, {1}.
	if want := []int{2, 4, 3, 2, 0}; !reflect.DeepEqual(inner.widths, want) {
		t.Fatalf("inner calls %v, want %v", inner.widths, want)
	}
	if len(inner.gids) != 1 || !inner.gids[goid()] {
		t.Fatalf("nested gangs called inner from goroutines %v, want only the caller's", inner.gids)
	}
}

func TestLockstepSingleThreadRunsInline(t *testing.T) {
	inner := &scriptCmp{}
	lockstep(inner, func(c comparator) {
		if c != comparator(inner) {
			t.Error("a gang of one should compare on inner directly")
		}
	})
	lockstep(inner) // a gang of none returns
}

// TestLockstepTerminatesAfterStickyError: once inner fails, bits are all
// false and Err is set; every thread must still run to its end so lockstep
// returns and no goroutine is left behind.
func TestLockstepTerminatesAfterStickyError(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := &scriptCmp{failAfter: 2}
	var sawErr bool
	var ok [2]bool
	lockstep(inner,
		compares(10, 6, &ok[0]),
		func(c comparator) {
			lockstep(c, compares(20, 4, &ok[1]), func(c comparator) {
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
