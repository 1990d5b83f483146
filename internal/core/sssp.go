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
// building block used inside index construction and kNN services) as one
// forward side of the route search, with no other side and no estimator.
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
	exp := &flatExpander{f: e.f}
	sd := &side{forward: true, q: e.newQueue(sac), settled: make(map[graph.Vertex]*label)}
	var phases PhaseTimings

	sd.q.stageOn(sac, []*item{{v: s, key: e.f.ZeroPartial(), g: e.f.ZeroPartial(), parent: graph.NoVertex, parc: -1}})(sac)
	var results []PathResult

	// One step per iteration: the champion is known from Peek without a
	// comparison, so its removal (the pop's path replay) and the tournament
	// build of the paths it extends to are independent and share protocol
	// instances; the merge into the queue follows.
	for len(results) < k {
		top, ok := sd.q.q.Peek()
		if !ok {
			break
		}
		t0 := time.Now()
		var relaxTime time.Duration
		threads := []func(comparator){sd.q.popOn}
		var commit func(comparator)
		if _, done := sd.settled[top.v]; !done {
			// Local step (Alg. 1 lines 4-8): settle v, record the shortest path,
			// extend by all neighbors into a batch of new tentative paths.
			sd.settled[top.v] = &label{g: top.g, parent: top.parent, parc: top.parc}
			results = append(results, PathResult{
				Target:  top.v,
				Path:    e.reconstruct(exp, sd.settled, nil, meeting{fv: top.v, crossArc: -1}),
				Partial: fed.ClonePartial(top.g),
				Found:   true,
			})
			if len(results) == k { // no later bit is read
				phases.Relax += time.Since(t0)
				break
			}
			batch, _, _ := relax(exp, top, sd, nil)
			relaxTime = time.Since(t0)
			threads = append(threads, func(c comparator) { commit = sd.stage(c, batch, nil) })
		}
		// MPC step (Alg. 1 lines 9-13) happens inside the queue: pop, batch
		// push and merge use only Fed-SAC comparisons.
		lockstep(sac, nil, threads...)
		if commit != nil {
			commit(sac)
		}
		phases.Relax += relaxTime
		phases.Queue += time.Since(t0) - relaxTime
		if err := sac.Err(); err != nil {
			return nil, QueryStats{}, err
		}
	}

	phases.SACWait = sac.wait
	stats := QueryStats{
		SettledVertices: len(sd.settled),
		SAC:             e.f.Engine().Stats().Sub(before),
		Queue:           sd.q.q.Counts(),
		Phases:          phases,
		WallTime:        time.Since(start),
	}
	return results, stats, nil
}
