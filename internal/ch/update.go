package ch

import (
	"maps"
	"slices"
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// UpdateStats reports the cost of one dynamic index update.
type UpdateStats struct {
	ChangedArcs         int
	RecomputedShortcuts int // shortcut weights refreshed by propagation
	ReverifiedVertices  int // contraction decisions re-examined
	AddedShortcuts      int // shortcuts added by re-verification
	SAC                 mpc.Stats
	WallTime            time.Duration
}

// Update returns the index of f, the next traffic version of x's
// federation, whose silos changed their private weights of the given base
// arcs (§IV, Federated Index Updating); x is left as it was. An arc has moved
// when any silo's weight of it differs between x's federation and f (per
// silo: equal joint costs can hide a redistribution that shortcuts must still
// inherit). On a customized index, Index.sweep re-decides the pair groups in
// the moved arcs' static cone, each by comparing its old winner with the
// members that moved (all members if the winner itself moved). On a
// witness-built index, three steps:
//
//  1. take the moved arcs' partials from f's silos;
//  2. propagate weight recomputation bottom-up through the shortcuts whose
//     via paths depend on an affected arc (pure local computation: each
//     silo recomputes its own partial sums);
//  3. re-verify the contraction decisions whose inputs changed — the via
//     arcs incident to a re-weighted arc's lower-ranked endpoint, and the
//     recorded witness paths that used an affected arc — adding any newly
//     required shortcuts (with federated witness searches through Fed-SAC)
//     and cascading to higher ranks.
//
// Shortcuts are never removed: a now-redundant shortcut still carries the
// exact cost of a real path, so query correctness is unaffected; the index
// merely stays slightly larger than a fresh rebuild would be.
//
// Cost: for the paper's workload — small random fractions of edges
// re-weighted (Table II) — an update is far cheaper than reconstruction.
// Adversarial changes that re-weight an entire top-of-hierarchy corridor can
// invalidate so many witness decisions that re-verification exceeds a
// rebuild; callers can compare UpdateStats.SAC against BuildStatistics().SAC
// and rebuild when updates trend that way.
func (x *Index) Update(f *fed.Federation, changed []graph.Arc) (*Index, UpdateStats, error) {
	// Every update runs on an engine fork of its own, as a derivation does: a
	// transport fault poisons the fork, never the engine the next update and
	// the next derivation fork from.
	wf := f.Fork()
	defer wf.Engine().Close()
	start := time.Now()
	// The moved arcs are sorted: the pairs an update opens may not depend on
	// the caller's order.
	var moved []int32
	for _, a := range changed {
		for p := 0; p < f.P(); p++ {
			if f.Silo(p).Weight(a) != x.f.Silo(p).Weight(a) {
				moved = append(moved, int32(a))
				break
			}
		}
	}
	slices.Sort(moved)
	moved = slices.Compact(moved)
	y := x.fork(f)
	var stats UpdateStats
	var err error
	if y.skel != nil {
		stats, err = y.updateCustomized(wf.NewSAC(), moved)
	} else {
		stats, err = y.updateWitness(wf.NewSAC(), moved)
	}
	stats.ChangedArcs = len(changed)
	stats.SAC = wf.Engine().Stats()
	stats.WallTime = time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	return y, stats, nil
}

// fork returns a copy of x over f for Update to bring up to f's weights while
// x keeps answering at its own. What Update writes in place is copied: a
// customized index's winner table and group partials (its topology is the
// skeleton's), or a witness index's shortcut partials, children and skip
// records. What Update only appends to is shared with its capacity clipped,
// so an append reallocates instead of writing into x.
func (x *Index) fork(f *fed.Federation) *Index {
	y := *x
	y.f = f
	if x.skel != nil {
		y.win, y.grpW = slices.Clone(x.win), cloneEach(x.grpW)
		return &y
	}
	y.scW = cloneEach(x.scW)
	y.tail, y.head, y.via = slices.Clip(x.tail), slices.Clip(x.head), slices.Clip(x.via)
	y.childA, y.childB = slices.Clone(x.childA), slices.Clone(x.childB)
	y.upOut, y.downIn = clipEach(x.upOut), clipEach(x.downIn)
	hs := *x.hs
	hs.outAll, hs.inAll = clipEach(hs.outAll), clipEach(hs.inAll)
	hs.skips = slices.Clone(hs.skips)
	hs.viaIndex = maps.Clone(hs.viaIndex)
	for v, arcs := range hs.viaIndex {
		hs.viaIndex[v] = slices.Clip(arcs)
	}
	hs.parents = maps.Clone(hs.parents)
	for a, arcs := range hs.parents {
		hs.parents[a] = slices.Clip(arcs)
	}
	y.hs = &hs
	return &y
}

// cloneEach is a deep copy of cols.
func cloneEach[T any](cols [][]T) [][]T {
	out := make([][]T, len(cols))
	for i, c := range cols {
		out[i] = slices.Clone(c)
	}
	return out
}

// clipEach is a copy of lists whose every list has its capacity clipped.
func clipEach(lists [][]int32) [][]int32 {
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i] = slices.Clip(l)
	}
	return out
}

// updateWitness is Update on a witness-built index, given its moved arcs.
func (x *Index) updateWitness(sac *fed.SAC, dirty []int32) (UpdateStats, error) {
	var stats UpdateStats
	p, nb := x.f.P(), int32(x.numBase)

	witOwners := x.witnessOwnerIndex()
	// queue orders the re-verifications by contraction rank, ascending, so
	// that they cascade strictly upward.
	var queue graph.MinHeap
	enqueued := make(map[graph.Vertex]bool)
	push := func(v graph.Vertex) {
		if !enqueued[v] {
			enqueued[v] = true
			queue.Push(v, int64(x.rank[v]))
		}
	}
	// affected holds every arc whose partials changed; each is seeded for
	// re-verification — its lower-ranked endpoint and the contractions whose
	// witness used it — once.
	affected := make(map[int32]bool)
	seed := func(a int32) {
		if affected[a] {
			return
		}
		affected[a] = true
		u, w := x.tail[a], x.head[a]
		if x.rank[u] < x.rank[w] {
			push(u)
		} else {
			push(w)
		}
		for _, owner := range witOwners[a] {
			push(owner)
		}
	}
	// propagate re-sums, per silo, every shortcut built on a changed arc, and
	// the shortcuts built on those in turn. It follows hs.parents, not arc
	// order: a shortcut an earlier update rewired may precede its children.
	propagate := func(a int32) {
		for frontier := []int32{a}; len(frontier) > 0; frontier = frontier[1:] {
			cur := frontier[0]
			if cur != a && !affected[cur] {
				stats.RecomputedShortcuts++
			}
			seed(cur)
			for _, parent := range x.hs.parents[cur] {
				moved := false
				for s, ws := range x.scW {
					if nw := x.partial(s, x.childA[parent]) + x.partial(s, x.childB[parent]); ws[parent-nb] != nw {
						ws[parent-nb], moved = nw, true
					}
				}
				if moved {
					frontier = append(frontier, parent)
				}
			}
		}
	}

	// Steps 1 and 2 — the moved arcs' partials are x.f's; propagate them.
	for _, a := range dirty {
		propagate(a)
	}

	// Step 3 — re-verification, cascading upward in rank order; push queues
	// each vertex at most once.
	for queue.Len() > 0 {
		v, _ := queue.Pop()
		stats.ReverifiedVertices++
		// Snapshot the weights of v's shortcuts so only genuinely changed
		// arcs feed the cascade (re-seeding unchanged shortcuts would
		// balloon re-verification far past a rebuild).
		beforeW := make(map[int32][]int64)
		for _, a := range x.hs.viaIndex[v] {
			ws := make([]int64, p)
			for s := 0; s < p; s++ {
				ws[s] = x.partial(s, a)
			}
			beforeW[a] = ws
		}
		added := x.contract(sac, v, updateEligibility(x, x.rank[v]))
		if err := sac.Err(); err != nil {
			return stats, err
		}
		stats.AddedShortcuts += len(added)
		// Newly added arcs and weight-changed refreshed shortcuts cascade.
		for _, a := range x.hs.viaIndex[v] {
			old, ok := beforeW[a]
			moved := !ok
			for s := 0; !moved && s < p; s++ {
				moved = old[s] != x.partial(s, a)
			}
			if moved {
				propagate(a)
			}
		}
		for _, a := range added {
			x.addArcToQueryLists(a)
		}
	}
	x.buildStats.Shortcuts = x.NumShortcuts()
	return stats, nil
}

// witnessOwnerIndex maps each overlay arc to the contracted vertices whose
// skip decision relied on it as part of a witness path.
func (x *Index) witnessOwnerIndex() map[int32][]graph.Vertex {
	idx := make(map[int32][]graph.Vertex)
	for v, recs := range x.hs.skips {
		for _, r := range recs {
			for _, a := range r.witnessArcs {
				idx[a] = append(idx[a], graph.Vertex(v))
			}
		}
	}
	return idx
}
