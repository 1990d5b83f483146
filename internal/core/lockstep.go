package core

import "repro/internal/fed"

// lockstep runs fns as logical threads that share protocol instances: each
// gets its own comparator handle, and whenever every live thread is blocked
// on a LessBatch (or has returned) their pairs are concatenated in
// thread order into one inner call — one Fed-SAC instance per tick instead
// of one per thread — and each thread resumes with its slice of the bits.
//
// inner is only ever called from the caller's goroutine, and only while no
// thread runs, so an inner that is not safe for concurrent use stays safe.
// Threads run concurrently between ticks and must not share mutable state.
// A thread may call lockstep on its own handle (nesting). The sequence of
// inner calls is deterministic whenever the threads are. lockstep returns
// once every thread has returned; after a sticky inner error the bits are
// all false and threads run on to their (structure-bounded) end.
func lockstep(inner comparator, fns ...func(comparator)) {
	if len(fns) == 1 {
		fns[0](inner)
		return
	}
	events := make(chan lockstepEvent)
	threads := make([]*lockstepThread, len(fns))
	for i, fn := range fns {
		th := &lockstepThread{id: i, inner: inner, events: events, bits: make(chan []bool)}
		threads[i] = th
		go func() {
			defer func() { events <- lockstepEvent{thread: th.id, done: true} }()
			fn(th)
		}()
	}
	blocked := make([][][2]fed.Partial, len(fns)) // per thread: the pairs it waits on
	for live := len(fns); live > 0; {
		var tick [][2]fed.Partial
		for n := live; n > 0; n-- {
			ev := <-events
			if ev.done {
				live--
			} else {
				blocked[ev.thread] = ev.pairs
			}
		}
		for _, pairs := range blocked {
			tick = append(tick, pairs...)
		}
		if len(tick) == 0 { // every thread returned
			return
		}
		bits := inner.LessBatch(tick)
		for i, pairs := range blocked {
			if pairs != nil {
				blocked[i] = nil
				threads[i].bits <- bits[:len(pairs):len(pairs)]
				bits = bits[len(pairs):]
			}
		}
	}
}

// lockstepEvent is a thread reporting to its coordinator: blocked on pairs,
// or done.
type lockstepEvent struct {
	thread int
	pairs  [][2]fed.Partial
	done   bool
}

// lockstepThread is the comparator handle of one logical thread.
type lockstepThread struct {
	id     int
	inner  comparator
	events chan<- lockstepEvent
	bits   chan []bool
}

func (t *lockstepThread) LessBatch(pairs [][2]fed.Partial) []bool {
	if len(pairs) == 0 {
		return nil
	}
	t.events <- lockstepEvent{thread: t.id, pairs: pairs}
	return <-t.bits
}

func (t *lockstepThread) Err() error { return t.inner.Err() }
