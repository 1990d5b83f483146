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
	// est keys each relaxed path by g+π; nil (kNN) keys it by g. evals
	// counts its estimates.
	est   lb.Estimator
	evals int
	// done is raised when the side stops; it binds the side's pop replay, so
	// a stopped side leaves its queue half-replayed, never to be read again.
	done stopFlag
	// folded counts the steps whose μ candidates the side has folded.
	folded int

	// queued is, in SPSP, the last path to each vertex the side queued: the
	// other side's settles read it, and under prune so does the side's own
	// stage. pending holds the paths whose prune bits are still to come, and
	// pruned counts the prune's comparisons.
	queued  map[graph.Vertex]*item
	prune   bool
	pending []*item
	pruned  int64
}

// stage stages the relaxed paths of batch through c; when the side prunes,
// only those that can still win, one comparison each: a path to a vertex the
// side has queued a path to must beat that path, and any other must beat
// mu, when mu is non-nil. A path it keeps becomes the vertex's queued path;
// that this need not be the shortest of several queued paths is sound,
// since any queued path to the vertex outlives a path it beats. The paths
// that need no comparison start the tournament at once, its first level in
// the prune's call, and those that win theirs join it after that level.
func (sd *side) stage(c comparator, batch []*item, mu fed.Partial) (commit func(comparator)) {
	if !sd.prune {
		if sd.queued != nil { // nil in kNN, which has no other side to read it
			for _, it := range batch {
				sd.queued[it.v] = it
			}
		}
		return sd.q.stageOn(c, batch)
	}
	var ready, contested []*item
	var pre [][2]*item
	for _, it := range batch {
		against := mu
		if q, ok := sd.queued[it.v]; ok {
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
		sd.queued[it.v] = it
	}
	sd.pruned += int64(len(pre))
	sd.pending = contested
	return sd.q.stageJoinOn(c, ready, pre, func(wins []bool) []*item {
		sd.pending = nil
		kept := contested[:0] // filtered in place: kept[k] is written after contested[k] is read
		for i, it := range contested {
			if wins[i] {
				kept = append(kept, it)
				sd.queued[it.v] = it
			}
		}
		return kept
	})
}

// relax extends it, the champion sd just settled, over exp: the tentative paths
// to push, and a μ candidate for every touch of the other side's search — at
// the vertex itself if the other side settled it, across one arc to a vertex
// it settled, and else along the paths it queued to the vertex or awaits the
// prune bits of. With no other side (kNN) there are no candidates.
func relax(exp expander, it *item, sd, other *side) (batch []*item, cands []fed.Partial, meets []meeting) {
	var met map[graph.Vertex]*label
	var queued []*item
	if other != nil {
		met = other.settled
		if q, ok := other.queued[it.v]; ok {
			queued = append(queued, q)
		}
		for _, q := range other.pending {
			if q.v == it.v {
				queued = append(queued, q)
			}
		}
	}
	if lbl, both := met[it.v]; both {
		cands = append(cands, fed.SumPartial(it.g, lbl.g))
		meets = append(meets, meeting{fv: it.v, crossArc: -1, bv: it.v})
		// Its settled path is no longer than any it queued, and it settled
		// its source, the one queued path without an arc, in its first step,
		// which the lead rule puts before this side's second.
		queued = nil
	}
	for _, at := range exp.arcs(it.v, sd.forward) {
		if _, dup := sd.settled[at.to]; dup {
			continue
		}
		ng := make(fed.Partial, len(it.g))
		exp.addWeight(ng, it.g, at.arc)
		if lbl, crossed := met[at.to]; crossed {
			m := meeting{fv: it.v, crossArc: at.arc, bv: at.to}
			if !sd.forward {
				m = meeting{fv: at.to, crossArc: at.arc, bv: it.v}
			}
			cands = append(cands, fed.SumPartial(ng, lbl.g))
			meets = append(meets, m)
		}
		key := ng
		if sd.est != nil {
			sd.evals++
			if pot := sd.est.Potential(at.to); pot != nil {
				key = fed.SumPartial(ng, pot)
			}
		}
		batch = append(batch, &item{v: at.to, key: key, g: ng, parent: it.v, parc: at.arc})
	}
	for _, q := range queued {
		m := meeting{fv: it.v, crossArc: q.parc, bv: q.parent}
		if !sd.forward {
			m = meeting{fv: q.parent, crossArc: q.parc, bv: it.v}
		}
		cands = append(cands, fed.SumPartial(it.g, q.g))
		meets = append(meets, m)
	}
	return batch, cands, meets
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

	newSide := func(forward bool, est lb.Estimator) *side {
		return &side{forward: forward, q: e.newQueue(sac), settled: make(map[graph.Vertex]*label), est: est,
			queued: make(map[graph.Vertex]*item), prune: e.opt.PruneStaged}
	}
	fwd, bwd := newSide(true, estF), newSide(false, estB)
	fwd.stage(sac, []*item{{v: s, key: estF.Potential(s), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}}, nil)(sac)
	bwd.stage(sac, []*item{{v: t, key: estB.Potential(t), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}}, nil)(sac)

	var mu fed.Partial
	var meet meeting
	muSets := 0 // how often μ was set
	// foldMu folds crossing candidates into μ through fed.EarliestMin on one
	// slate: the same winner as a sequential left-to-right fold with as many
	// comparisons, but the matches of one level go to c as one batch. If the
	// other side's fold set μ meanwhile, the winner plays that μ once; μ
	// keeps ties.
	foldMu := func(c comparator, cands []fed.Partial, meets []meeting) {
		if mu != nil {
			cands = append([]fed.Partial{mu}, cands...)
			meets = append([]meeting{meet}, meets...)
		}
		if len(cands) == 0 {
			return
		}
		from := muSets
		win := fed.EarliestMin(c.LessBatch, [][]fed.Partial{cands})[0]
		if muSets != from { // μ only falls, so only a fresh candidate can beat the new μ
			if from > 0 && win == 0 || !c.LessBatch([][2]fed.Partial{{cands[win], mu}})[0] {
				return
			}
		}
		mu, meet, muSets = cands[win], meets[win], muSets+1
	}

	// Each side is a lockstep thread that steps on its own clock, sharing
	// protocol instances tick by tick with the other side's thread. A step
	// knows its champion from Peek without a comparison, and runs
	//
	//	driver:  stopping rule, champion vs μ → settle, relax (plaintext)
	//	         → { fold candidates into μ ‖ stage the push }
	//	pop:     path replay, after tick 1 only while the side is not done
	//
	// followed by the commit, the merge of the staged push. The threads run
	// one at a time between ticks, so each settle and relax sees the other
	// side's settled set and queued paths as they stand, and μ is read and
	// set consistently. Lead rule: a side starts step n+1 only once the
	// other side has folded its step-n candidates or stopped, so every stop
	// check and prune reads a μ no larger than it would were the two sides'
	// steps paired. Under PruneStaged a stage thread's first tick is its
	// prune, which reads μ as the settle found it, and the first tournament
	// level of the paths that need no prune; the prune's survivors join the
	// tournament at its second tick. (Fed-ALT potentials compare on the
	// engine directly; that is safe because no instance runs while a thread
	// does.)
	run := func(sd, other *side) func(comparator) {
		return func(c comparator) {
			for step := 0; c.Err() == nil; step++ {
				for !other.done.raised && other.folded < step {
					park(c)
				}
				top, ok := sd.q.q.Peek()
				if !ok {
					break
				}
				var commit func(comparator)
				lockstep(c, []*stopFlag{nil, &sd.done}, func(c comparator) {
					_, dup := sd.settled[top.v]
					if !dup && mu != nil && !c.LessBatch([][2]fed.Partial{{top.key, mu}})[0] {
						sd.done.raised = true
					}
					if dup || sd.done.raised {
						sd.folded++
						return
					}
					r0 := time.Now()
					sd.settled[top.v] = &label{g: top.g, parent: top.parent, parc: top.parc}
					batch, cands, meets := relax(exp, top, sd, other)
					phases.Relax += time.Since(r0)
					stepMu := mu
					lockstep(c, nil,
						func(c comparator) { foldMu(c, cands, meets); sd.folded++ },
						func(c comparator) { commit = sd.stage(c, batch, stepMu) })
				}, sd.q.popOn)
				if sd.done.raised {
					return
				}
				if commit != nil {
					commit(c)
				}
			}
			sd.done.raised = true
		}
	}
	t0 := time.Now()
	lockstep(sac, nil, run(fwd, bwd), run(bwd, fwd))
	phases.Queue = time.Since(t0) - phases.Relax
	if err := sac.Err(); err != nil {
		return PathResult{}, QueryStats{}, err
	}

	phases.SACWait = sac.wait
	stats := QueryStats{
		SettledVertices: len(fwd.settled) + len(bwd.settled),
		HeuristicEvals:  2 + fwd.evals + bwd.evals, // the two sources' potentials, then every relaxed path's
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
// path from s to t, unpacking shortcuts as needed. kNN passes no backward
// labels and its settled vertex as fv.
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
	// Backward chain bv → t: labels already point toward t. kNN has none.
	for v := m.bv; bs != nil && bs[v].parent != graph.NoVertex; v = bs[v].parent {
		all = append(all, bs[v].parc)
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
	if len(path) == 0 { // kNN's source (SPSP answers s == t before searching)
		path = []graph.Vertex{m.fv}
	}
	return path
}
