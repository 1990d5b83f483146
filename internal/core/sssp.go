package core

import (
	"fmt"
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
)

// SSSP answers the federated single-source shortest-path query of Alg. 1:
// the k nearest vertices to s on the weighted joint road network (k = kNN
// query size; pass the vertex count for a full SSSP). The source itself is
// the first result. Runs on the flat road network (the paper's SSSP is the
// building block used inside index construction and kNN services).
func (e *Engine) SSSP(s graph.Vertex, k int) ([]PathResult, QueryStats, error) {
	start := time.Now()
	g := e.f.Graph()
	if int(s) < 0 || int(s) >= g.NumVertices() {
		return nil, QueryStats{}, fmt.Errorf("core: source %d out of range", s)
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("core: query size %d must be positive", k)
	}
	if k > g.NumVertices() {
		k = g.NumVertices()
	}
	sac := e.newCmp(e.f.NewSAC())
	before := e.f.Engine().Stats()
	q := e.newQueue(sac)
	settled := make(map[graph.Vertex]*label)
	var phases PhaseTimings

	q.stageOn(sac, []*item{{v: s, key: e.f.ZeroPartial(), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}})(sac)
	var results []PathResult

	// One step per iteration: the champion is known from Peek without a
	// comparison, so its removal (the pop's path replay) and the tournament
	// build of the paths it extends to are independent and share protocol
	// instances; the merge into the queue follows.
	for len(results) < k {
		it, ok := q.q.Peek()
		if !ok {
			break
		}
		t0 := time.Now()
		var relax time.Duration
		threads := []func(comparator){q.popOn}
		var commit func(comparator)
		if _, done := settled[it.v]; !done {
			// Local step (Alg. 1 lines 4-8): settle v, record the shortest path,
			// extend by all neighbors into a batch of new tentative paths.
			settled[it.v] = &label{g: it.g, parent: it.parent, parc: it.parc}
			results = append(results, PathResult{
				Target:  it.v,
				Path:    e.reconstructFlat(settled, it.v),
				Partial: fed.ClonePartial(it.g),
				Found:   true,
			})
			first := g.FirstOut(it.v)
			var batch []*item
			for i, u := range g.OutNeighbors(it.v) {
				if _, done := settled[u]; done {
					continue
				}
				a := first + graph.Arc(i)
				ng := make(fed.Partial, e.f.P())
				for p := range ng {
					ng[p] = it.g[p] + e.f.Silo(p).Weight(a)
				}
				batch = append(batch, &item{v: u, key: ng, g: ng, parent: it.v, parc: int32(a)})
			}
			relax = time.Since(t0)
			threads = append(threads, func(c comparator) { commit = q.stageOn(c, batch) })
		}
		// MPC step (Alg. 1 lines 9-13) happens inside the queue: pop, batch
		// push and merge use only Fed-SAC comparisons.
		e.gang(sac, threads...)
		if commit != nil {
			commit(sac)
		}
		phases.Relax += relax
		phases.Queue += time.Since(t0) - relax
		if err := sac.Err(); err != nil {
			return nil, QueryStats{}, err
		}
	}

	phases.SACWait = sac.wait
	stats := QueryStats{
		SettledVertices: len(settled),
		SAC:             e.f.Engine().Stats().Sub(before),
		Queue:           q.q.Counts(),
		Phases:          phases,
		WallTime:        time.Since(start),
	}
	return results, stats, nil
}

// reconstructFlat walks parent labels back to the source.
func (e *Engine) reconstructFlat(settled map[graph.Vertex]*label, t graph.Vertex) []graph.Vertex {
	var rev []graph.Vertex
	for v := t; v != graph.NoVertex; {
		rev = append(rev, v)
		v = settled[v].parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
