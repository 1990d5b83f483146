package core

import "repro/internal/fed"

// stopFlag lets one thread of a gang stop another's comparisons: once it is
// raised, the bound thread's later pairs get all-false bits without an
// instance and are counted in dropped. Its first tick always runs.
type stopFlag struct {
	raised  bool
	dropped int64
}

// lockstep runs fns as logical threads that share protocol instances: each
// gets its own comparator handle, and whenever every live thread is blocked
// on a LessBatch (or has returned) their pairs are concatenated in
// thread order into one inner call — one Fed-SAC instance per tick instead
// of one per thread — and each thread resumes with its slice of the bits.
// stops[i], if present and non-nil, binds thread i to a stopFlag; the
// coordinator reads it only while every live thread is blocked, so it needs
// no lock, and from the second tick on it answers a raised thread's pairs
// (and then its next) before it forms the tick.
//
// inner is only ever called from the caller's goroutine, and only while no
// thread runs, so an inner that is not safe for concurrent use stays safe.
// Threads run concurrently between ticks and must not share mutable state.
// A thread may call lockstep on its own handle (nesting). The sequence of
// inner calls is deterministic whenever the threads are. lockstep returns
// once every thread has returned; after a sticky inner error the bits are
// all false and threads run on to their (structure-bounded) end.
func lockstep(inner comparator, stops []*stopFlag, fns ...func(comparator)) {
	if len(fns) == 1 && (len(stops) == 0 || stops[0] == nil) {
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
	for live, ticks := len(fns), 0; live > 0; ticks++ {
		var tick [][2]fed.Partial
		for n := live; n > 0; n-- {
			ev := <-events
			if ev.done {
				live--
			} else {
				blocked[ev.thread] = ev.pairs
			}
		}
		for i, s := range stops { // only thread i runs until its next event
			for ticks > 0 && s != nil && s.raised && blocked[i] != nil {
				s.dropped += int64(len(blocked[i]))
				threads[i].bits <- make([]bool, len(blocked[i]))
				blocked[i] = nil
				if ev := <-events; ev.done {
					live--
				} else {
					blocked[i] = ev.pairs
				}
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
