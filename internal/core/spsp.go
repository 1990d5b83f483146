package core

import (
	"fmt"
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
)

// expander abstracts the search graph: the flat road network for Naive-Dijk,
// or the federated shortcut overlay for hierarchical search.
type expander interface {
	// arcs lists the relaxable arcs at v: forward expansion follows arcs
	// out of v, backward expansion follows arcs into v.
	arcs(v graph.Vertex, forward bool) []arcTo
	// addWeight sets dst = src + w_p(arc) per silo.
	addWeight(dst, src fed.Partial, arc int32)
	// unpack expands an arc ID into its base-graph arc sequence.
	unpack(arc int32) []graph.Arc
}

// arcTo is one relaxable arc: the neighbor it leads to (in search direction)
// and its arc ID.
type arcTo struct {
	to  graph.Vertex
	arc int32
}

// flatExpander searches the plain shared topology.
type flatExpander struct {
	f   *fed.Federation
	buf []arcTo
}

func (x *flatExpander) arcs(v graph.Vertex, forward bool) []arcTo {
	g := x.f.Graph()
	x.buf = x.buf[:0]
	if forward {
		first := g.FirstOut(v)
		for i, u := range g.OutNeighbors(v) {
			x.buf = append(x.buf, arcTo{to: u, arc: int32(first) + int32(i)})
		}
	} else {
		in, arcs := g.InNeighbors(v)
		for i, u := range in {
			x.buf = append(x.buf, arcTo{to: u, arc: int32(arcs[i])})
		}
	}
	return x.buf
}

func (x *flatExpander) addWeight(dst, src fed.Partial, arc int32) {
	for p := range dst {
		dst[p] = src[p] + x.f.Silo(p).Weight(graph.Arc(arc))
	}
}

func (x *flatExpander) unpack(arc int32) []graph.Arc { return []graph.Arc{graph.Arc(arc)} }

// chExpander searches upward in the federated shortcut hierarchy: the
// forward side relaxes arcs to higher-ranked heads, the backward side arcs
// from higher-ranked tails.
type chExpander struct {
	f   *fed.Federation
	idx indexView
	buf []arcTo
}

// indexView is the slice of ch.Index the search needs (an interface so core
// tests can fake it).
type indexView interface {
	UpOut(v graph.Vertex) []int32
	DownIn(v graph.Vertex) []int32
	Head(a int32) graph.Vertex
	Tail(a int32) graph.Vertex
	SiloWeight(p int, a int32) int64
	UnpackArcs(a int32) []int32
}

func (x *chExpander) arcs(v graph.Vertex, forward bool) []arcTo {
	x.buf = x.buf[:0]
	if forward {
		for _, a := range x.idx.UpOut(v) {
			x.buf = append(x.buf, arcTo{to: x.idx.Head(a), arc: a})
		}
	} else {
		for _, a := range x.idx.DownIn(v) {
			x.buf = append(x.buf, arcTo{to: x.idx.Tail(a), arc: a})
		}
	}
	return x.buf
}

func (x *chExpander) addWeight(dst, src fed.Partial, arc int32) {
	for p := range dst {
		dst[p] = src[p] + x.idx.SiloWeight(p, arc)
	}
}

func (x *chExpander) unpack(arc int32) []graph.Arc {
	base := x.idx.UnpackArcs(arc)
	out := make([]graph.Arc, len(base))
	for i, a := range base {
		out[i] = graph.Arc(a)
	}
	return out
}

// side is one direction of the bidirectional search.
type side struct {
	forward bool
	q       *searchQueue
	settled map[graph.Vertex]*label
	est     lb.Estimator
	// done is raised when the side stops; it binds the side's pop replay, so
	// a stopped side leaves its queue half-replayed, never to be read again.
	done stopFlag

	// best is, under Options.PruneStaged, the last path to each vertex the
	// side queued; pruned counts the comparisons made against it and μ.
	best   map[graph.Vertex]*item
	pruned int64

	// State of the current step: the champion this step pops (nil when the
	// side sits the step out), whether it is to be settled (not a duplicate,
	// and not stopped by the stopping rule), and the staged push.
	top    *item
	settle bool
	commit func(comparator)
}

// stage stages the relaxed paths of batch through c; under
// Options.PruneStaged, only those that can still win, one comparison each: a
// path to a vertex the side has queued a path to must beat that path, and any
// other must beat mu, when mu is non-nil. A path it keeps becomes the
// vertex's queued path; that this need not be the shortest of several queued
// paths is sound, since any queued path to the vertex outlives a path it
// beats. The paths that need no comparison start the tournament at once,
// its first level in the prune's call, and those that win theirs join it
// after that level.
func (sd *side) stage(c comparator, batch []*item, mu fed.Partial) (commit func(comparator)) {
	if sd.best == nil {
		return sd.q.stageOn(c, batch)
	}
	var ready, contested []*item
	var pre [][2]*item
	for _, it := range batch {
		against := mu
		if q, ok := sd.best[it.v]; ok {
			against = q.key
		}
		if against == nil {
			ready = append(ready, it)
		} else {
			contested = append(contested, it)
			pre = append(pre, [2]*item{it, {key: against}})
		}
	}
	for _, it := range ready { // no contested path shares a vertex with these
		sd.best[it.v] = it
	}
	sd.pruned += int64(len(pre))
	return sd.q.stageJoinOn(c, ready, pre, func(wins []bool) []*item {
		kept := contested[:0] // filtered in place: kept[k] is written after contested[k] is read
		for i, it := range contested {
			if wins[i] {
				kept = append(kept, it)
				sd.best[it.v] = it
			}
		}
		return kept
	})
}

// meeting records how the two searches touch: a forward-settled vertex, an
// optional crossing arc, and a backward-settled vertex.
type meeting struct {
	fv       graph.Vertex
	crossArc int32 // -1 when fv == bv
	bv       graph.Vertex
}

// SPSP answers a federated single-pair shortest-path query. The search
// strategy follows the engine options: flat bidirectional (Naive-Dijk) or
// hierarchical over the shortcut index, optionally A*-guided by a federated
// lower bound, with the configured priority queue. Termination is the
// classic sound rule: a side stops once its queue minimum cannot beat the
// best known joint cost μ (checked by Fed-SAC); the query stops when both
// sides stopped.
func (e *Engine) SPSP(s, t graph.Vertex) (PathResult, QueryStats, error) {
	start := time.Now()
	g := e.f.Graph()
	if int(s) < 0 || int(s) >= g.NumVertices() || int(t) < 0 || int(t) >= g.NumVertices() {
		return PathResult{}, QueryStats{}, fmt.Errorf("core: query (%d,%d) out of range", s, t)
	}
	if s == t {
		return PathResult{Target: t, Path: []graph.Vertex{s}, Partial: e.f.ZeroPartial(), Found: true},
			QueryStats{}, nil
	}
	rawSAC := e.f.NewSAC()
	sac := e.newCmp(rawSAC)
	before := e.f.Engine().Stats()
	var phases PhaseTimings
	heuristicEvals := 0

	estF, estB, err := lb.NewPair(e.opt.Estimator, e.f, e.opt.Landmarks, rawSAC, s, t)
	if err != nil {
		return PathResult{}, QueryStats{}, err
	}
	var exp expander
	if e.opt.Index != nil {
		exp = &chExpander{f: e.f, idx: e.opt.Index}
	} else {
		exp = &flatExpander{f: e.f}
	}

	fwd := &side{forward: true, q: e.newQueue(sac), settled: make(map[graph.Vertex]*label), est: estF}
	bwd := &side{forward: false, q: e.newQueue(sac), settled: make(map[graph.Vertex]*label), est: estB}
	sides := [2]*side{fwd, bwd}
	if e.opt.PruneStaged {
		fwd.best, bwd.best = make(map[graph.Vertex]*item), make(map[graph.Vertex]*item)
	}
	fwd.q.stageOn(sac, []*item{{v: s, key: estF.Potential(s), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}})(sac)
	bwd.q.stageOn(sac, []*item{{v: t, key: estB.Potential(t), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}})(sac)
	heuristicEvals += 2

	var mu fed.Partial
	var meet meeting
	// foldMu folds crossing candidates into μ through fed.EarliestMin on one
	// slate: the same winner as a sequential left-to-right fold with as many
	// comparisons, but the matches of one level go to c as one batch.
	foldMu := func(c comparator, cands []fed.Partial, meets []meeting) {
		if mu != nil {
			cands = append([]fed.Partial{mu}, cands...)
			meets = append([]meeting{meet}, meets...)
		}
		if len(cands) == 0 {
			return
		}
		win := fed.EarliestMin(c.LessBatch, [][]fed.Partial{cands})[0]
		mu, meet = cands[win], meets[win]
	}

	// relax extends sd's freshly settled champion: the tentative paths to
	// push, and a μ candidate for every touch of the other side's settled
	// set — at the vertex itself or across one arc.
	relax := func(sd, other *side) (batch []*item, cands []fed.Partial, meets []meeting) {
		it := sd.top
		// When both sides settle the same vertex in one step, each sees the
		// other's label; the forward side reports the meeting.
		mirrored := !sd.forward && other.settle && other.top.v == it.v
		if lbl, both := other.settled[it.v]; both && !mirrored {
			cands = append(cands, fed.SumPartial(it.g, lbl.g))
			meets = append(meets, meeting{fv: it.v, crossArc: -1, bv: it.v})
		}
		for _, at := range exp.arcs(it.v, sd.forward) {
			if _, dup := sd.settled[at.to]; dup {
				continue
			}
			ng := make(fed.Partial, e.f.P())
			exp.addWeight(ng, it.g, at.arc)
			if lbl, crossed := other.settled[at.to]; crossed {
				m := meeting{fv: it.v, crossArc: at.arc, bv: at.to}
				if !sd.forward {
					m = meeting{fv: at.to, crossArc: at.arc, bv: it.v}
				}
				cands = append(cands, fed.SumPartial(ng, lbl.g))
				meets = append(meets, m)
			}
			key := ng
			heuristicEvals++
			if pot := sd.est.Potential(at.to); pot != nil {
				key = fed.SumPartial(ng, pot)
			}
			batch = append(batch, &item{v: at.to, key: key, g: ng, parent: it.v, parc: at.arc})
		}
		return batch, cands, meets
	}

	// One step per iteration, for both live sides at once. Their champions
	// are known from Peek without a comparison, and the two queues never
	// touch each other, so the step's comparing parts are independent threads
	// that share protocol instances tick by tick:
	//
	//	driver:  stopping rule, both champions vs μ → settle, relax (plaintext)
	//	         → { fold candidates into μ ‖ stage fwd push ‖ stage bwd push }
	//	pop fwd: path replay, after tick 1 only while fwd is not done
	//	pop bwd: path replay, after tick 1 only while bwd is not done
	//
	// followed by { commit fwd ‖ commit bwd }, the merges of the staged
	// pushes. Checking a champion against the μ of the previous step is
	// sound: a side can only stop later than it might have, never too early.
	// Under PruneStaged a stage thread's first tick is its prune, which
	// reads the μ the step started with (the fold beside it replaces μ),
	// and the first tournament level of the paths that need no prune; the
	// prune's survivors join the tournament at its second tick.
	settledTotal := 0
	for {
		threads, stops := make([]func(comparator), 1, 3), make([]*stopFlag, 1, 3)
		for _, sd := range sides {
			sd.top, sd.settle, sd.commit = nil, false, nil
			if sd.done.raised {
				continue
			}
			top, ok := sd.q.q.Peek()
			if !ok {
				sd.done.raised = true
				continue
			}
			sd.top = top
			_, dup := sd.settled[top.v]
			sd.settle = !dup
			threads, stops = append(threads, sd.q.popOn), append(stops, &sd.done)
		}
		if len(threads) == 1 {
			break // both sides done
		}
		t0 := time.Now()
		var relaxTime time.Duration
		threads[0] = func(c comparator) {
			stepMu := mu
			if mu != nil {
				var keys [][2]fed.Partial
				var whose []*side
				for _, sd := range sides {
					if sd.settle {
						keys = append(keys, [2]fed.Partial{sd.top.key, mu})
						whose = append(whose, sd)
					}
				}
				for i, beatsMu := range c.LessBatch(keys) {
					if !beatsMu {
						whose[i].done.raised, whose[i].settle = true, false
					}
				}
			}
			// Settle both before relaxing either, so each relaxation sees the
			// other side's complete settled set and no crossing is missed.
			// (Fed-ALT potentials compare on the engine directly; that is
			// safe here because protocol instances only run while every
			// thread, this one included, is blocked.)
			r0 := time.Now()
			for _, sd := range sides {
				if sd.settle {
					sd.settled[sd.top.v] = &label{g: sd.top.g, parent: sd.top.parent, parc: sd.top.parc}
					settledTotal++
				}
			}
			var cands []fed.Partial
			var meets []meeting
			inner := []func(comparator){func(c comparator) { foldMu(c, cands, meets) }}
			for i, sd := range sides {
				if sd.settle {
					batch, cs, ms := relax(sd, sides[1-i])
					cands, meets = append(cands, cs...), append(meets, ms...)
					inner = append(inner, func(c comparator) { sd.commit = sd.stage(c, batch, stepMu) })
				}
			}
			relaxTime = time.Since(r0)
			e.gang(c, nil, inner...)
		}
		e.gang(sac, stops, threads...)
		var commits []func(comparator)
		for _, sd := range sides {
			if sd.commit != nil {
				commits = append(commits, sd.commit)
			}
		}
		e.gang(sac, nil, commits...)
		phases.Relax += relaxTime
		phases.Queue += time.Since(t0) - relaxTime
		if err := sac.Err(); err != nil {
			return PathResult{}, QueryStats{}, err
		}
	}

	phases.SACWait = sac.wait
	stats := QueryStats{
		SettledVertices: settledTotal,
		HeuristicEvals:  heuristicEvals,
		SAC:             e.f.Engine().Stats().Sub(before),
		PruneCompares:   fwd.pruned + bwd.pruned,
		Phases:          phases,
		WallTime:        time.Since(start),
	}
	stats.Queue.Add(fwd.q.q.Counts())
	stats.Queue.Add(bwd.q.q.Counts())
	stats.Queue.Pop -= fwd.done.dropped + bwd.done.dropped // the replays' pairs that ran no instance

	if mu == nil {
		return PathResult{Target: t, Found: false}, stats, nil
	}
	path := e.reconstruct(exp, fwd.settled, bwd.settled, meet)
	return PathResult{Target: t, Path: path, Partial: mu, Found: true}, stats, nil
}

// reconstruct expands the meeting record into the full base-graph vertex
// path from s to t, unpacking shortcuts as needed.
func (e *Engine) reconstruct(exp expander, fs, bs map[graph.Vertex]*label, m meeting) []graph.Vertex {
	// Collect arc IDs of the forward chain s → fv (reversed during walk).
	var fwdArcs []int32
	for v := m.fv; ; {
		lbl := fs[v]
		if lbl.parent == graph.NoVertex {
			break
		}
		fwdArcs = append(fwdArcs, lbl.parc)
		v = lbl.parent
	}
	for i, j := 0, len(fwdArcs)-1; i < j; i, j = i+1, j-1 {
		fwdArcs[i], fwdArcs[j] = fwdArcs[j], fwdArcs[i]
	}
	all := fwdArcs
	if m.crossArc >= 0 {
		all = append(all, m.crossArc)
	}
	// Backward chain bv → t: labels already point toward t.
	for v := m.bv; ; {
		lbl := bs[v]
		if lbl.parent == graph.NoVertex {
			break
		}
		all = append(all, lbl.parc)
		v = lbl.parent
	}

	g := e.f.Graph()
	var path []graph.Vertex
	for _, a := range all {
		for _, ba := range exp.unpack(a) {
			if len(path) == 0 {
				path = append(path, g.Tail(ba))
			}
			path = append(path, g.Head(ba))
		}
	}
	if len(path) == 0 { // s == fv == bv == t handled earlier; degenerate guard
		path = []graph.Vertex{m.fv}
	}
	return path
}
