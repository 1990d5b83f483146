// Package core implements FedRoad's federated shortest-path query engines:
// Fed-SSSP (Alg. 1, including kNN) and Fed-SPSP with the paper's full
// optimization stack — bidirectional search, the federated shortcut index
// (§IV), federated A* lower bounds (§V) and the TM-tree priority queue (§VI).
//
// Every cost comparison between secret joint values goes through Fed-SAC;
// the engines never materialize a joint cost. Per-query statistics expose
// the counters the paper's evaluation reports: settled vertices, secure
// comparisons and communication bytes/rounds, all measured.
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
	// Index enables hierarchical search over the federated shortcut index,
	// which must have been derived over the engine's silo weights.
	Index *ch.Index
	// BatchedMPC runs the comparisons of one lockstep tick in one shared
	// protocol instance (one set of communication rounds for all of them).
	// Every search step runs in lockstep in both modes: its threads — the
	// pop replays, the next pushes' tournament builds, the μ update and the
	// stopping-rule checks of both directions — meet tick by tick, and the
	// matches of one tournament level are one tick. Off, each comparison of
	// a tick is an instance of its own; the comparisons made are the same.
	// In both, a side the stopping rule stops makes only the first
	// comparison of its pop replay, the one in the check's tick. Requires
	// Queue == tm-tree.
	BatchedMPC bool
	// PruneStaged makes SPSP stage only the relaxed paths that can still
	// win. Before its push, each side compares every relaxed path once: with
	// the side's queued path to the same vertex when there is one, otherwise
	// with the μ the step started with, once μ exists. The comparisons are
	// one batch, beside the pop replays, the μ fold and the first tournament
	// level of the paths that need none; a path that loses is dropped, and
	// one that wins joins the tournament after that level. Neither drop
	// changes a settle: on one side a vertex has one potential, so a path
	// that does not beat the queued one would be popped after it, as a
	// duplicate; and a key that does not beat an earlier μ fails the
	// stopping rule when it is popped. Off, every relaxed path is queued, as
	// in Alg. 1.
	PruneStaged bool
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

// RouteOptions are the options of a served route query: the TM-tree with
// batched Fed-SAC, Fed-AMPS and pruned pushes, over index when it is non-nil
// and flat otherwise. The facade's sessions and the cross-process mesh's
// silos both build their engines from it, so the two run one search.
func RouteOptions(index *ch.Index) Options {
	return Options{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: index, BatchedMPC: true, PruneStaged: true}
}

// comparator is the secure-comparison dependency of the search loops: the
// query's Fed-SAC handle, or a lockstep thread's share of it. Every call is
// one protocol instance; a lone comparison is a batch of one.
type comparator interface {
	LessBatch(pairs [][2]fed.Partial) []bool
	Err() error
}

// Engine answers federated shortest-path queries for one federation.
type Engine struct {
	f   *fed.Federation
	opt Options
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
	if opt.Index != nil && !opt.Index.Federation().SameWeights(f) {
		return nil, fmt.Errorf("core: shortcut index belongs to other silo weights")
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
	SAC             mpc.Stats // Fed-SAC usage: comparisons, rounds, bytes, messages
	Queue           pq.Counts // priority-queue comparison breakdown (Fig. 12)
	PruneCompares   int64     // Options.PruneStaged's comparisons, made before the queue's
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

// timedCmp wraps the per-query Fed-SAC handle and accumulates the wall time
// spent blocked in secure comparisons — the query's Fed-SAC wait phase.
// Unless batched, it also splits every tick into instances of one: the only
// thing Options.BatchedMPC decides.
type timedCmp struct {
	inner   comparator
	batched bool
	wait    time.Duration
}

func (t *timedCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	if !t.batched && len(pairs) > 1 {
		out := make([]bool, len(pairs))
		for i := range pairs {
			out[i] = t.LessBatch(pairs[i : i+1])[0]
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
	return &timedCmp{inner: sac, batched: e.opt.BatchedMPC}
}

// searchQueue is the configured priority queue over frontier items, every
// queue comparison one secure comparison. Its operations take the comparator
// to compare through, so a step can put them on different lockstep threads:
// the queue's LessFunc (pop replay, merge, chain update) reads pop, the
// TM-tree's tournament build reads stage (one batch per level, which an
// unbatched comparator splits into instances of one). Each operation sets
// the handle it reads, so none reads a handle a finished step left behind.
type searchQueue struct {
	q          pq.Queue[*item]
	pop, stage comparator
}

func (e *Engine) newQueue(cmp comparator) *searchQueue {
	sq := &searchQueue{pop: cmp, stage: cmp}
	less := func(a, b *item) bool { return sq.pop.LessBatch([][2]fed.Partial{{a.key, b.key}})[0] }
	sq.q = pq.New[*item](e.opt.Queue, less, e.opt.Alpha)
	if q, ok := sq.q.(*pq.TMTree[*item]); ok {
		q.SetBatchLess(func(pairs [][2]*item) []bool { return sq.stage.LessBatch(keys(pairs)) })
	}
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
	return sq.stageJoinOn(c, items, nil, nil)
}

// stageJoinOn is stageOn for a batch the caller decides by pairs of its own:
// ready and the items join returns, given pre's bits (pq.TMTree.StageJoin).
// On the TM-tree pre shares its call with the tournament's first level; on
// the other queues, which build nothing, it is one call of its own.
func (sq *searchQueue) stageJoinOn(c comparator, ready []*item, pre [][2]*item, join func(bits []bool) []*item) (commit func(comparator)) {
	sq.stage = c
	var done func()
	if t, ok := sq.q.(*pq.TMTree[*item]); ok {
		done = t.StageJoin(ready, pre, join)
	} else {
		if len(pre) > 0 {
			ready = append(ready, join(c.LessBatch(keys(pre)))...)
		}
		done = sq.q.Stage(ready)
	}
	return func(c comparator) {
		sq.pop = c
		done()
	}
}

// keys maps item pairs to the key pairs a comparator decides.
func keys(pairs [][2]*item) [][2]fed.Partial {
	ps := make([][2]fed.Partial, len(pairs))
	for i, pr := range pairs {
		ps[i] = [2]fed.Partial{pr[0].key, pr[1].key}
	}
	return ps
}
