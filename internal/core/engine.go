// Package core implements FedRoad's federated shortest-path query engines:
// Fed-SSSP (Alg. 1, including kNN) and Fed-SPSP with the paper's full
// optimization stack — bidirectional search, the federated shortcut index
// (§IV), federated A* lower bounds (§V) and the TM-tree priority queue (§VI).
//
// Every cost comparison between secret joint values goes through Fed-SAC;
// the engines never materialize a joint cost. Per-query statistics expose
// the counters the paper's evaluation reports: settled vertices, secure
// comparisons, communication bytes/rounds and the simulated network time.
package core

import (
	"fmt"
	"time"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
)

// Options configures a query engine. The zero value is the paper's
// Naive-Dijk baseline: flat bidirectional Dijkstra, binary heap, no
// estimator.
type Options struct {
	// Queue selects the priority-queue structure (default: binary heap).
	Queue pq.Kind
	// Alpha is the TM-tree balance factor (default 4, the paper's setting).
	Alpha int
	// Estimator selects the federated lower bound for A* pruning.
	Estimator lb.Kind
	// Landmarks must be pre-computed for the Fed-ALT / Fed-ALT-Max kinds.
	Landmarks *lb.Landmarks
	// Index enables hierarchical search over the federated shortcut index.
	Index *ch.Index
	// BatchedMPC runs independent secure comparisons in shared protocol
	// instances (one set of communication rounds for all of them): the
	// matches of one tournament level in the TM-tree's build and in the μ
	// update, the stopping-rule checks of both search directions, and — by
	// running every search step in lockstep — the pop replay, the next
	// push's tournament build and the μ update of both directions, tick by
	// tick. The comparisons made are the same; off, the same step runs them
	// one instance each. Requires Queue == tm-tree.
	BatchedMPC bool
}

func (o Options) withDefaults() Options {
	if o.Queue == "" {
		o.Queue = pq.KindHeap
	}
	if o.Alpha == 0 {
		o.Alpha = 4
	}
	if o.Estimator == "" {
		o.Estimator = lb.None
	}
	return o
}

// comparator is the secure-comparison dependency of the search loops. In
// production it is the federation's Fed-SAC handle; the test suite swaps in
// recording/replaying comparators to make the paper's §VII simulation
// argument executable (a query's entire behavior is a deterministic function
// of the public topology and the comparison bits).
type comparator interface {
	Less(a, b fed.Partial) bool
	LessBatch(pairs [][2]fed.Partial) []bool
	Err() error
}

// Engine answers federated shortest-path queries for one federation.
type Engine struct {
	f   *fed.Federation
	opt Options
	// cmpHook, when set, wraps the per-query Fed-SAC handle (tests only).
	cmpHook func(*fed.SAC) comparator
}

// NewEngine validates the option set and builds an engine.
func NewEngine(f *fed.Federation, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	switch opt.Estimator {
	case lb.None, lb.FedAMPS:
	case lb.FedALT, lb.FedALTMax:
		if opt.Landmarks == nil {
			return nil, fmt.Errorf("core: estimator %s requires Options.Landmarks", opt.Estimator)
		}
	default:
		return nil, fmt.Errorf("core: unknown estimator %q", opt.Estimator)
	}
	switch opt.Queue {
	case pq.KindHeap, pq.KindLeftist, pq.KindTMTree:
	default:
		return nil, fmt.Errorf("core: unknown queue kind %q", opt.Queue)
	}
	if opt.Index != nil && opt.Index.Federation().Root() != f.Root() {
		return nil, fmt.Errorf("core: shortcut index belongs to a different federation")
	}
	if opt.BatchedMPC && opt.Queue != pq.KindTMTree {
		return nil, fmt.Errorf("core: BatchedMPC requires the tm-tree queue, got %q", opt.Queue)
	}
	return &Engine{f: f, opt: opt}, nil
}

// Federation returns the engine's federation.
func (e *Engine) Federation() *fed.Federation { return e.f }

// PhaseTimings breaks a query's local wall time down by search phase, the
// per-query trace behind the observability layer. A search step is a
// plaintext part (settle and relax) and comparing parts that share protocol
// instances (pop replay, tournament build, μ update, stopping rule, commit),
// so Queue + Relax is the wall time of the search steps, and SACWait is the
// part of Queue spent inside Fed-SAC: Queue − SACWait approximates the time
// of the queue structure and the step's scheduling.
type PhaseTimings struct {
	// Queue is the wall time of the search steps minus Relax: every queue
	// operation, the stopping-rule and μ comparisons that run beside them,
	// and the secure comparisons all of these trigger.
	Queue time.Duration
	// SACWait is time blocked inside Fed-SAC protocol instances.
	SACWait time.Duration
	// Relax is the plaintext time of the steps: settling, enumerating arcs
	// and building tentative-path batches from silo-local weights (for
	// Fed-ALT, including the estimator's own secure comparisons).
	Relax time.Duration
}

// Add accumulates other into p.
func (p *PhaseTimings) Add(other PhaseTimings) {
	p.Queue += other.Queue
	p.SACWait += other.SACWait
	p.Relax += other.Relax
}

// QueryStats reports the cost of one query.
type QueryStats struct {
	SettledVertices int       // search iterations (paper: explored vertices)
	HeuristicEvals  int       // federated lower-bound (A* potential) evaluations
	SAC             mpc.Stats // Fed-SAC usage: comparisons, rounds, bytes, simulated net time
	Queue           pq.Counts // priority-queue comparison breakdown (Fig. 12)
	Phases          PhaseTimings
	WallTime        time.Duration
}

// PathResult is a query answer. Partial is the per-silo partial cost vector
// of the returned path — each entry is private to its silo; the joint cost
// is their mean (callers in the evaluation harness may sum it, a real
// deployment would not).
type PathResult struct {
	Target  graph.Vertex
	Path    []graph.Vertex
	Partial fed.Partial
	Found   bool
}

// item is one frontier entry: a tentative path to v with per-silo partial
// cost g and queue key g+π (π = federated lower bound of the remaining
// distance). Entries are never decreased — duplicates are skipped at pop,
// exactly as Alg. 1 keeps Q as a set of explored paths.
type item struct {
	v      graph.Vertex
	key    fed.Partial
	g      fed.Partial
	parent graph.Vertex
	parc   int32 // arc into v (base arc ID, or overlay arc ID in CH search)
}

type label struct {
	g      fed.Partial
	parent graph.Vertex
	parc   int32
}

// newComparator builds the per-query comparator, honoring the test hook.
func (e *Engine) newComparator(sac *fed.SAC) comparator {
	if e.cmpHook != nil {
		return e.cmpHook(sac)
	}
	return sac
}

// timedCmp wraps the per-query comparator and accumulates the wall time
// spent blocked in secure comparisons — the query's Fed-SAC wait phase.
// Unless batched, it also splits every batch into scalar instances, so that
// one search loop serves both settings of Options.BatchedMPC.
type timedCmp struct {
	inner   comparator
	batched bool
	wait    time.Duration
}

func (t *timedCmp) Less(a, b fed.Partial) bool {
	t0 := time.Now()
	r := t.inner.Less(a, b)
	t.wait += time.Since(t0)
	return r
}

func (t *timedCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	if !t.batched {
		out := make([]bool, len(pairs))
		for i, pr := range pairs {
			out[i] = t.Less(pr[0], pr[1])
		}
		return out
	}
	t0 := time.Now()
	r := t.inner.LessBatch(pairs)
	t.wait += time.Since(t0)
	return r
}

func (t *timedCmp) Err() error { return t.inner.Err() }

// newCmp builds the per-query comparator over a Fed-SAC handle.
func (e *Engine) newCmp(sac *fed.SAC) *timedCmp {
	return &timedCmp{inner: e.newComparator(sac), batched: e.opt.BatchedMPC}
}

// gang runs fns as the threads of one search step: in lockstep when
// BatchedMPC is on, so that comparisons the threads make at the same tick
// share a protocol instance, and one after the other otherwise. The threads
// must be independent of one another, which makes the two orders equivalent.
func (e *Engine) gang(cmp comparator, fns ...func(comparator)) {
	if e.opt.BatchedMPC {
		lockstep(cmp, fns...)
		return
	}
	for _, fn := range fns {
		fn(cmp)
	}
}

// searchQueue is the configured priority queue over frontier items, every
// queue comparison one secure comparison. Its operations take the comparator
// to compare through, so a step can put them on different lockstep threads:
// the queue's LessFunc (pop replay, merge, chain update) reads pop, its
// batched tournament build reads stage. (Unbatched, a tournament build goes
// through the LessFunc too; then every handle is the query's one comparator.)
type searchQueue struct {
	q          pq.Queue[*item]
	pop, stage comparator
}

func (e *Engine) newQueue(cmp comparator) *searchQueue {
	sq := &searchQueue{pop: cmp, stage: cmp}
	less := func(a, b *item) bool { return sq.pop.Less(a.key, b.key) }
	if !e.opt.BatchedMPC {
		sq.q = pq.New[*item](e.opt.Queue, less, e.opt.Alpha)
		return sq
	}
	q := pq.NewTMTree[*item](less, e.opt.Alpha)
	q.SetBatchLess(func(pairs [][2]*item) []bool {
		ps := make([][2]fed.Partial, len(pairs))
		for i, pr := range pairs {
			ps[i] = [2]fed.Partial{pr[0].key, pr[1].key}
		}
		return sq.stage.LessBatch(ps)
	})
	sq.q = q
	return sq
}

// popOn removes the champion (known from Peek), replaying through c.
func (sq *searchQueue) popOn(c comparator) {
	sq.pop = c
	sq.q.Pop()
}

// stageOn stages items through c — it may run beside popOn — and returns the
// commit as a thread of its own.
func (sq *searchQueue) stageOn(c comparator, items []*item) (commit func(comparator)) {
	sq.stage = c
	done := sq.q.Stage(items)
	return func(c comparator) {
		sq.pop = c
		done()
	}
}
