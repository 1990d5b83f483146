package ch

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// skipRec records a shortcut pair that was *not* added because a witness path
// strictly shorter than the via path existed at decision time. The witness's
// arc set is kept so dynamic updates know when the decision must be
// re-examined.
type skipRec struct {
	u, w        graph.Vertex
	witnessArcs []int32
}

// hierarchyState is the bookkeeping shared by construction and dynamic
// update: the full overlay adjacency and the per-vertex skip records.
type hierarchyState struct {
	outAll   [][]int32 // all overlay arcs per tail
	inAll    [][]int32 // all overlay arcs per head
	skips    [][]skipRec
	viaIndex map[graph.Vertex][]int32 // shortcuts grouped by via vertex
	parents  map[int32][]int32        // child overlay arc -> shortcuts built on it
}

// indexHierarchy derives the hierarchyState of the arcs the index holds.
func (x *Index) indexHierarchy(skips [][]skipRec) {
	n := len(x.rank)
	hs := &hierarchyState{
		outAll:   make([][]int32, n),
		inAll:    make([][]int32, n),
		skips:    skips,
		viaIndex: make(map[graph.Vertex][]int32),
		parents:  make(map[int32][]int32),
	}
	for a := int32(0); a < int32(len(x.tail)); a++ {
		hs.outAll[x.tail[a]] = append(hs.outAll[x.tail[a]], a)
		hs.inAll[x.head[a]] = append(hs.inAll[x.head[a]], a)
		if x.via[a] != NoShortcut {
			hs.viaIndex[x.via[a]] = append(hs.viaIndex[x.via[a]], a)
			hs.parents[x.childA[a]] = append(hs.parents[x.childA[a]], a)
			hs.parents[x.childB[a]] = append(hs.parents[x.childB[a]], a)
		}
	}
	x.hs = hs
}

// DefaultWitnessHops bounds the frontier depth of the federated witness
// search: a witness path may use at most this many arcs. Deeper searches
// find more witnesses (fewer shortcuts) but pay more wide Fed-SAC rounds
// per contraction.
const DefaultWitnessHops = 8

// Params tunes the witness-pruned build (a skeleton takes none: it is a
// function of the topology). The zero value gives the paper's setup:
// edge-difference ordering and the default witness-search cap. No field
// changes the protocol schedule of a derivation on a given graph: that is a
// function of the graph and the public comparison bits only, so every silo
// derives it alike.
type Params struct {
	// Ordering selects the public importance heuristic (default
	// OrderEdgeDiff).
	Ordering Ordering
	// WitnessCap bounds witness-search frontier expansions per source
	// (default DefaultWitnessCap). Smaller caps build faster but add more
	// conservative shortcuts.
	WitnessCap int
	// WitnessHops bounds the arc count of witness paths (default
	// DefaultWitnessHops).
	WitnessHops int
}

// Build constructs the federated shortcut index with the default parameters.
func Build(f *fed.Federation) (*Index, error) {
	return BuildWith(f, Params{})
}

// BuildWith constructs the federated shortcut index for a federation
// (Alg. 3): a public ordering pass fixes the contraction order; the
// contraction pass then decides every shortcut on *joint* weights via
// Fed-SAC, so all silos end with identical shortcut sets while each keeps
// only its partial shortcut weights. The whole build runs on one engine forked
// from f's, and the index answers over f's silo weights.
func BuildWith(f *fed.Federation, prm Params) (*Index, error) {
	switch prm.Ordering {
	case "":
		prm.Ordering = OrderEdgeDiff
	case OrderEdgeDiff, OrderDegree:
	default:
		return nil, fmt.Errorf("ch: unknown ordering %q", prm.Ordering)
	}
	if prm.WitnessCap == 0 {
		prm.WitnessCap = DefaultWitnessCap
	}
	if prm.WitnessHops == 0 {
		prm.WitnessHops = DefaultWitnessHops
	}
	g := f.Graph()
	n := g.NumVertices()

	x := &Index{
		f:           f,
		rank:        make([]int32, n),
		numBase:     g.NumArcs(),
		scW:         make([][]int64, f.P()),
		witnessCap:  prm.WitnessCap,
		witnessHops: prm.WitnessHops,
	}
	for v := range x.rank {
		x.rank[v] = -1
	}
	for a := 0; a < g.NumArcs(); a++ {
		u, w := g.Tail(graph.Arc(a)), g.Head(graph.Arc(a))
		x.tail = append(x.tail, u)
		x.head = append(x.head, w)
		x.via = append(x.via, NoShortcut)
		x.childA = append(x.childA, -1)
		x.childB = append(x.childB, -1)
	}
	x.indexHierarchy(make([][]skipRec, n))

	wf := f.Fork()
	defer wf.Engine().Close()
	start := time.Now()
	sac := wf.NewSAC()

	var order []graph.Vertex
	switch prm.Ordering {
	case OrderEdgeDiff:
		order = computeOrder(g, f.StaticWeights())
	case OrderDegree:
		order = computeOrderDegree(g)
	}
	orderingTime := time.Since(start)

	// Contraction proceeds in rounds: each round greedily selects, following
	// the contraction order, a maximal set of vertices pairwise non-adjacent
	// in the current overlay; every member is proposed, in set order, against
	// the round-start snapshot, then the proposals are merged (and ranked) in
	// the same order. The rounds are part of what the index IS — a witness
	// search sees the shortcuts of earlier rounds but not of its own — so
	// they stay although nothing runs concurrently. See DESIGN.md,
	// "Deterministic, non-blocking index construction" for the soundness
	// argument.
	el := buildEligibility(x)
	inSet := make([]bool, n)
	pos, rounds, maxWidth := 0, 0, 0
	for pos < n {
		var set []graph.Vertex
		for _, v := range order {
			if x.rank[v] >= 0 || x.adjacentToSet(v, inSet, el) {
				continue
			}
			inSet[v] = true
			set = append(set, v)
		}
		props := make([]*proposal, len(set))
		for i, v := range set {
			props[i] = x.propose(sac, v, el)
		}
		if err := sac.Err(); err != nil {
			return nil, err
		}
		for i, v := range set {
			x.apply(props[i])
			x.rank[v] = int32(pos)
			pos++
			inSet[v] = false
		}
		rounds++
		if len(set) > maxWidth {
			maxWidth = len(set)
		}
	}

	// Route every overlay arc into the query-time up/down lists.
	x.upOut = make([][]int32, n)
	x.downIn = make([][]int32, n)
	for a := int32(0); a < int32(len(x.tail)); a++ {
		x.addArcToQueryLists(a)
	}

	sacStats := wf.Engine().Stats()
	avgWidth := 0.0
	if rounds > 0 {
		avgWidth = float64(n) / float64(rounds)
	}
	x.buildStats = BuildStats{
		Shortcuts:       x.NumShortcuts(),
		SAC:             sacStats,
		WallTime:        time.Since(start),
		Rounds:          rounds,
		MaxRoundWidth:   maxWidth,
		AvgRoundWidth:   avgWidth,
		RoundsSaved:     sacStats.Compares*int64(mpc.RoundsPerCompare) - sacStats.Rounds,
		OrderingTime:    orderingTime,
		ContractionTime: time.Since(start) - orderingTime,
	}
	return x, nil
}

// adjacentToSet reports whether v shares an eligible overlay arc with a
// vertex already selected for the current contraction round.
func (x *Index) adjacentToSet(v graph.Vertex, inSet []bool, el eligibility) bool {
	for _, a := range x.hs.inAll[v] {
		if el.arcOK(a) && inSet[x.tail[a]] {
			return true
		}
	}
	for _, a := range x.hs.outAll[v] {
		if el.arcOK(a) && inSet[x.head[a]] {
			return true
		}
	}
	return false
}

// eligibility tells the contraction machinery which overlay arcs and
// vertices exist in the remaining graph at the current step.
type eligibility struct {
	arcOK func(a int32) bool
	vtxOK func(v graph.Vertex) bool
}

// buildEligibility: during initial construction a vertex is present until it
// has been assigned a rank, and every overlay arc created so far is present.
func buildEligibility(x *Index) eligibility {
	return eligibility{
		arcOK: func(int32) bool { return true },
		vtxOK: func(v graph.Vertex) bool { return x.rank[v] < 0 },
	}
}

// updateEligibility reconstructs the remaining graph at contraction step k:
// vertices with rank > k, and arcs that existed before step k (base arcs or
// shortcuts whose via vertex was contracted earlier).
func updateEligibility(x *Index, k int32) eligibility {
	return eligibility{
		arcOK: func(a int32) bool {
			return x.via[a] == NoShortcut || x.rank[x.via[a]] < k
		},
		vtxOK: func(v graph.Vertex) bool { return x.rank[v] > k },
	}
}

// proposal is the read-only outcome of contracting one vertex against a
// fixed overlay snapshot. All mutations are deferred to apply, so the
// proposals of one round's non-adjacent vertices all read the round-start
// overlay and merge in set order.
type proposal struct {
	v         graph.Vertex
	shortcuts []propShortcut
	refresh   []refreshRec
	skips     []skipRec
}

// propShortcut is a new shortcut tail(ca) → v → head(cb).
type propShortcut struct{ ca, cb int32 }

// refreshRec re-binds an existing shortcut a (via v) to the via arcs (ca,cb)
// and partial weights decided by the latest re-contraction.
type refreshRec struct {
	a, ca, cb int32
	via       fed.Partial
}

// propose computes the (re-)contraction of v without mutating the overlay:
// for every in-neighbor u and out-neighbor w present in the remaining graph,
// the joint via cost is compared against a federated witness search. The
// independent Fed-SAC decisions of the contraction — the parallel-arc
// tournament matches and the final witness-vs-via comparisons — run as
// CompareBatch instances instead of one comparison each.
//
// A shortcut is skipped only when the witness is STRICTLY shorter than the
// via path; ties add the shortcut. Strictness is what keeps simultaneous
// same-round contractions sound: with a tie-skip rule, two vertices
// contracted from the same snapshot could each cite the other's equal-cost
// path as witness and both drop it.
func (x *Index) propose(sac *fed.SAC, v graph.Vertex, el eligibility) *proposal {
	p := x.f.P()
	prop := &proposal{v: v}
	groups := x.minArcGroups(x.hs.inAll[v], true, v, el)
	nIn := len(groups)
	groups = append(groups, x.minArcGroups(x.hs.outAll[v], false, v, el)...)
	x.reduceMinArcs(sac, groups)
	minIn, minOut := groups[:nIn], groups[nIn:]
	if len(minIn) == 0 || len(minOut) == 0 {
		return prop
	}

	// All witness searches of this contraction — one per minimal in-neighbor
	// with at least one target — run as one lane-synchronous frontier sweep,
	// so every hop costs a handful of wide Fed-SAC rounds for the whole
	// neighborhood instead of a round per heap operation per source.
	srcs := make([]graph.Vertex, 0, len(minIn))
	srcOf := make([]int, len(minIn)) // minIn index -> search index, -1 if none
	for ui, gu := range minIn {
		srcOf[ui] = -1
		for _, gw := range minOut {
			if gw.other != gu.other {
				srcOf[ui] = len(srcs)
				srcs = append(srcs, gu.other)
				break
			}
		}
	}
	wit := x.witnessSearchAll(sac, srcs, v, el)

	type candidate struct {
		u, w         graph.Vertex
		arcUV, arcVW int32
		via, wit     fed.Partial // wit nil when no witness path was found
		witArcs      []int32
	}
	var cands []candidate
	for ui, gu := range minIn {
		if srcOf[ui] < 0 {
			continue
		}
		u, arcUV := gu.other, gu.arcs[0]
		labels := wit[srcOf[ui]]
		for _, gw := range minOut {
			if gw.other == u {
				continue
			}
			via := make(fed.Partial, p)
			for s := 0; s < p; s++ {
				via[s] = x.partial(s, arcUV) + x.partial(s, gw.arcs[0])
			}
			c := candidate{u: u, w: gw.other, arcUV: arcUV, arcVW: gw.arcs[0], via: via}
			if lbl := labels[gw.other]; lbl != nil {
				c.wit, c.witArcs = lbl.part, witPath(labels, gw.other)
			}
			cands = append(cands, c)
		}
	}

	skip := make([]bool, len(cands))
	var pairs [][2]fed.Partial
	var refs []int
	for i, c := range cands {
		if c.wit != nil {
			pairs = append(pairs, [2]fed.Partial{c.wit, c.via})
			refs = append(refs, i)
		}
	}
	for j, less := range sac.LessBatch(pairs) {
		skip[refs[j]] = less
	}

	existing := make(map[[2]graph.Vertex]int32, len(x.hs.viaIndex[v]))
	for _, a := range x.hs.viaIndex[v] {
		existing[[2]graph.Vertex{x.tail[a], x.head[a]}] = a
	}
	for i, c := range cands {
		if skip[i] {
			prop.skips = append(prop.skips, skipRec{u: c.u, w: c.w, witnessArcs: c.witArcs})
			continue
		}
		if a, ok := existing[[2]graph.Vertex{c.u, c.w}]; ok {
			prop.refresh = append(prop.refresh, refreshRec{a: a, ca: c.arcUV, cb: c.arcVW, via: c.via})
		} else {
			prop.shortcuts = append(prop.shortcuts, propShortcut{ca: c.arcUV, cb: c.arcVW})
		}
	}
	return prop
}

// apply materializes a proposal: refreshed shortcut bindings, new shortcut
// arcs (IDs assigned here, in the proposal's deterministic neighbor-sorted
// order) and the vertex's skip records. Returns the newly added shortcut IDs.
func (x *Index) apply(prop *proposal) []int32 {
	for _, r := range prop.refresh {
		if x.childA[r.a] != r.ca || x.childB[r.a] != r.cb {
			x.childA[r.a], x.childB[r.a] = r.ca, r.cb
			x.hs.parents[r.ca] = append(x.hs.parents[r.ca], r.a)
			x.hs.parents[r.cb] = append(x.hs.parents[r.cb], r.a)
		}
		for s, ws := range x.scW {
			ws[r.a-int32(x.numBase)] = r.via[s]
		}
	}
	var added []int32
	for _, sc := range prop.shortcuts {
		added = append(added, x.addShortcut(prop.v, sc.ca, sc.cb))
	}
	x.hs.skips[prop.v] = prop.skips
	return added
}

// contract runs the (re-)contraction of v synchronously — propose against
// the current overlay, then apply. Used by the sequential paths (dynamic
// update re-verification). Returns the IDs of newly added shortcut arcs.
func (x *Index) contract(sac *fed.SAC, v graph.Vertex, el eligibility) []int32 {
	return x.apply(x.propose(sac, v, el))
}

// neighborGroup gathers the eligible parallel arcs between the contracted
// vertex and one neighbor. After reduceMinArcs, arcs[0] is the joint-minimum
// arc.
type neighborGroup struct {
	other graph.Vertex
	arcs  []int32
}

// minArcGroups buckets the eligible overlay arcs incident to v by neighbor,
// in deterministic neighbor-sorted order (map iteration order must never
// leak into shortcut IDs or skip records — builds are byte-reproducible).
func (x *Index) minArcGroups(arcs []int32, incoming bool, v graph.Vertex, el eligibility) []neighborGroup {
	byOther := make(map[graph.Vertex][]int32)
	for _, a := range arcs {
		if !el.arcOK(a) {
			continue
		}
		other := x.head[a]
		if incoming {
			other = x.tail[a]
		}
		if other == v || !el.vtxOK(other) {
			continue
		}
		byOther[other] = append(byOther[other], a)
	}
	others := make([]graph.Vertex, 0, len(byOther))
	for o := range byOther {
		others = append(others, o)
	}
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	groups := make([]neighborGroup, len(others))
	for i, o := range others {
		groups[i] = neighborGroup{other: o, arcs: byOther[o]}
	}
	return groups
}

// reduceMinArcs reduces every group to its joint-minimum arc (swapped into
// arcs[0]) via fed.EarliestMin — the per-level matches of all groups run in
// one batched Fed-SAC instance per level.
func (x *Index) reduceMinArcs(sac *fed.SAC, groups []neighborGroup) {
	slates := make([][]fed.Partial, len(groups))
	for gi, g := range groups {
		slate := make([]fed.Partial, len(g.arcs))
		for i, a := range g.arcs {
			slate[i] = x.Partial(a)
		}
		slates[gi] = slate
	}
	for gi, win := range fed.EarliestMin(sac.LessBatch, slates) {
		groups[gi].arcs[0] = groups[gi].arcs[win]
	}
}

// addShortcut appends a new shortcut arc composed of two existing overlay
// arcs (tail(ca) → v → head(cb)) and routes it into the hierarchy adjacency.
func (x *Index) addShortcut(v graph.Vertex, ca, cb int32) int32 {
	a := int32(len(x.tail))
	u, w := x.tail[ca], x.head[cb]
	x.tail = append(x.tail, u)
	x.head = append(x.head, w)
	x.via = append(x.via, v)
	x.childA = append(x.childA, ca)
	x.childB = append(x.childB, cb)
	for s := range x.scW {
		x.scW[s] = append(x.scW[s], x.partial(s, ca)+x.partial(s, cb))
	}
	x.hs.outAll[u] = append(x.hs.outAll[u], a)
	x.hs.inAll[w] = append(x.hs.inAll[w], a)
	x.hs.viaIndex[v] = append(x.hs.viaIndex[v], a)
	x.hs.parents[ca] = append(x.hs.parents[ca], a)
	x.hs.parents[cb] = append(x.hs.parents[cb], a)
	return a
}

// witLabel is the best hop-bounded reach one witness search knows for a
// vertex, with the parent link that reconstructs the path's arcs.
type witLabel struct {
	part fed.Partial
	par  graph.Vertex
	parc int32
}

// witSearch is the per-source state of the lane-synchronous witness sweep.
type witSearch struct {
	src      graph.Vertex
	labels   map[graph.Vertex]*witLabel
	frontier []graph.Vertex
	budget   int
}

// witnessSearchAll runs all witness searches of one contraction — one per
// minimal in-neighbor, each over the remaining graph excluding v — as a
// single hop-bounded, lane-synchronous Bellman-Ford sweep. Per hop, every
// search expands its whole frontier (in vertex order, spending its
// witnessCap expansion budget deterministically), and the label tournaments
// of ALL touched (search, vertex) slots — the existing label plus every new
// relaxation, in arrival order — resolve together through fed.EarliestMin.
// Each tournament level is therefore one wide Fed-SAC batch for the entire
// neighborhood, where the old per-source Dijkstra paid a comparison round
// per heap operation.
//
// Correctness does not need the search to be exhaustive: every label is the
// exact joint cost of a real path from its source (labels only ever
// decrease, and a label's recorded parent chain always costs no more than
// the label itself), so a label strictly below a via cost proves a witness
// exists. Hop and budget truncation only make contraction more conservative
// (extra shortcuts, never a wrong skip). Results are identical across
// runs and hosts: candidate order is deterministic and the earliest-min
// tournament is bracket-shape independent.
func (x *Index) witnessSearchAll(sac *fed.SAC, srcs []graph.Vertex, v graph.Vertex, el eligibility) []map[graph.Vertex]*witLabel {
	searches := make([]*witSearch, len(srcs))
	for si, u := range srcs {
		searches[si] = &witSearch{
			src:      u,
			labels:   map[graph.Vertex]*witLabel{u: {part: x.f.ZeroPartial(), par: graph.NoVertex, parc: -1}},
			frontier: []graph.Vertex{u},
			budget:   x.witnessCap,
		}
	}
	type slotKey struct {
		si int
		z  graph.Vertex
	}
	type relaxCand struct {
		part fed.Partial
		par  graph.Vertex
		parc int32
	}
	for hop := 0; hop < x.witnessHops; hop++ {
		var keys []slotKey
		cands := make(map[slotKey][]relaxCand)
		for si, s := range searches {
			if len(s.frontier) == 0 {
				continue
			}
			sort.Slice(s.frontier, func(i, j int) bool { return s.frontier[i] < s.frontier[j] })
			for _, y := range s.frontier {
				if s.budget <= 0 {
					break
				}
				s.budget--
				yl := s.labels[y]
				for _, a := range x.hs.outAll[y] {
					if !el.arcOK(a) {
						continue
					}
					z := x.head[a]
					if z == v || z == y || z == s.src || !el.vtxOK(z) {
						continue
					}
					np := make(fed.Partial, len(yl.part))
					for sl := range np {
						np[sl] = yl.part[sl] + x.partial(sl, a)
					}
					key := slotKey{si, z}
					if _, seen := cands[key]; !seen {
						keys = append(keys, key)
					}
					cands[key] = append(cands[key], relaxCand{part: np, par: y, parc: a})
				}
			}
			s.frontier = s.frontier[:0]
		}
		if len(keys) == 0 {
			break
		}
		slates := make([][]fed.Partial, len(keys))
		for ki, key := range keys {
			cs := cands[key]
			slate := make([]fed.Partial, 0, len(cs)+1)
			if lbl := searches[key.si].labels[key.z]; lbl != nil {
				slate = append(slate, lbl.part)
			}
			for _, c := range cs {
				slate = append(slate, c.part)
			}
			slates[ki] = slate
		}
		winners := fed.EarliestMin(sac.LessBatch, slates)
		for ki, key := range keys {
			s := searches[key.si]
			win := winners[ki]
			if s.labels[key.z] != nil {
				if win == 0 {
					continue // existing label already wins (ties included)
				}
				win--
			}
			c := cands[key][win]
			s.labels[key.z] = &witLabel{part: c.part, par: c.par, parc: c.parc}
			s.frontier = append(s.frontier, key.z)
		}
	}
	out := make([]map[graph.Vertex]*witLabel, len(searches))
	for si, s := range searches {
		out[si] = s.labels
	}
	return out
}

// witPath reconstructs the arcs of the found witness path to w by walking
// the parent chain. The chain is acyclic with positive joint weights (cost
// strictly decreases toward the source); the walk is capped defensively
// regardless.
func witPath(labels map[graph.Vertex]*witLabel, w graph.Vertex) []int32 {
	var arcs []int32
	for y := w; len(arcs) <= len(labels); {
		lbl := labels[y]
		if lbl == nil || lbl.par == graph.NoVertex {
			break
		}
		arcs = append(arcs, lbl.parc)
		y = lbl.par
	}
	return arcs
}
