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
// on a LessBatch, parked (see park) or has returned, their pairs are
// concatenated in thread order into one inner call — one Fed-SAC instance
// per tick instead of one per thread — and each thread resumes with its
// slice of the bits. stops[i], if present and non-nil, binds thread i to a
// stopFlag; the coordinator reads it only while no thread runs, and from the
// second tick on it answers a raised thread's pairs (and then its next)
// before it forms the tick.
//
// The threads run one at a time: at the start and after every tick the
// coordinator resumes them in thread order, each until its next LessBatch,
// park or return. So threads may share mutable state, each reading what the
// threads before it left, and inner, called only from the caller's
// goroutine while no thread runs, need not be safe for concurrent use. A
// thread may call lockstep on its own handle (nesting); a nested gang's
// threads run within their parent's turn. The sequence of inner calls is
// deterministic whenever the threads are. lockstep returns once every
// thread has returned; after a sticky inner error the bits are all false and
// threads run on to their (structure-bounded) end.
func lockstep(inner comparator, stops []*stopFlag, fns ...func(comparator)) {
	if len(fns) == 1 && (len(stops) == 0 || stops[0] == nil) {
		fns[0](inner)
		return
	}
	events := make(chan lockstepEvent)
	threads := make([]*lockstepThread, len(fns))
	blocked := make([][][2]fed.Partial, len(fns)) // per thread: the pairs it waits on
	parked := make([]bool, len(fns))
	live := len(fns)
	next := func() { // the running thread's next event
		ev := <-events
		switch {
		case ev.done:
			live--
		case ev.park:
			parked[ev.thread] = true
		default:
			blocked[ev.thread] = ev.pairs
		}
	}
	for i, fn := range fns {
		th := &lockstepThread{id: i, inner: inner, events: events, bits: make(chan []bool)}
		threads[i] = th
		go func() {
			defer func() { events <- lockstepEvent{thread: th.id, done: true} }()
			fn(th)
		}()
		next()
	}
	for ticks := 0; live > 0; ticks++ {
		for i, s := range stops {
			for ticks > 0 && s != nil && s.raised && blocked[i] != nil {
				s.dropped += int64(len(blocked[i]))
				threads[i].bits <- make([]bool, len(blocked[i]))
				blocked[i] = nil
				next()
			}
		}
		var tick [][2]fed.Partial
		for _, pairs := range blocked {
			tick = append(tick, pairs...)
		}
		var bits []bool
		if len(tick) > 0 {
			bits = inner.LessBatch(tick)
		}
		for i, pairs := range blocked {
			if pairs != nil || parked[i] {
				blocked[i], parked[i] = nil, false
				threads[i].bits <- bits[:len(pairs):len(pairs)]
				bits = bits[len(pairs):]
				next()
			}
		}
	}
}

// park makes the lockstep thread whose handle is c sit out one tick: it adds
// no pair, and resumes in its turn after the tick. A gang whose every live
// thread parks runs no instance for that tick.
func park(c comparator) {
	t := c.(*lockstepThread)
	t.events <- lockstepEvent{thread: t.id, park: true}
	<-t.bits
}

// lockstepEvent is a thread reporting to its coordinator: blocked on pairs,
// parked, or done.
type lockstepEvent struct {
	thread int
	pairs  [][2]fed.Partial
	park   bool
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
