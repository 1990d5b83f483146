package ch

import (
	"container/heap"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// Skeleton is the metric-independent half of a customizable contraction
// hierarchy: the contraction order plus the full shortcut topology, with no
// weights and therefore no MPC. It is a pure function of the public graph
// topology, so every silo derives the identical skeleton locally and it
// never changes under traffic.
//
// Unlike the witness-pruned hierarchy of Build, the skeleton adds a shortcut
// for EVERY lower triangle: a witness found under one traffic metric proves
// nothing about the next one, so pruning here would be unsound. The price is
// a larger overlay; the payoff is that a traffic change costs one
// weight-customization sweep (Customize) instead of a full federated
// rebuild.
type Skeleton struct {
	g       *graph.Graph
	rank    []int32 // contraction position per vertex
	numBase int

	// Per overlay arc; shortcut via vertices are non-decreasing in rank
	// across arc IDs (shortcuts are created in contraction order), which is
	// what lets one ascending pass derive the customization plan.
	tail, head []graph.Vertex
	via        []graph.Vertex // NoShortcut for base arcs

	stats SkeletonStats

	planOnce sync.Once
	plan     *custPlan
}

// SkeletonStats reports the (plaintext, MPC-free) skeleton construction
// cost. Ordering is interleaved with contraction (the greedy score tracks
// the live overlay), so there is no separate ordering phase to report.
type SkeletonStats struct {
	Shortcuts int
	WallTime  time.Duration
}

// maxSkelArcs caps the overlay so arc IDs stay inside int32 (the ID width
// everywhere in the index); hitting it means the ordering degenerated on
// this topology and the skeleton must fail cleanly, not wrap around.
const maxSkelArcs = 1<<31 - 1

// BuildSkeleton contracts the graph on topology alone: every (in-neighbor,
// out-neighbor) pair alive at a contraction gains a shortcut unconditionally
// — no witness search, no weights, no federation. The result can be
// customized for any traffic metric with Customize.
//
// Because nothing is witness-pruned, the contraction order decides the
// overlay size outright, and a static order computed on the input graph
// degenerates badly: without pruning, late vertices accumulate huge live
// neighborhoods (on an 8k-vertex grid the fill-in overflows 2^31 arcs). The
// order is therefore chosen dynamically — always contract the vertex whose
// *live* overlay neighborhood currently has the least fill-in, ties broken
// by vertex ID — which is the standard customizable-CH discipline and keeps
// the skeleton near-linear on road-like topologies. The order is a
// deterministic function of the public topology alone, so every silo — and
// every restart — derives the identical skeleton locally: it is never
// stored.
func BuildSkeleton(g *graph.Graph) (*Skeleton, error) {
	start := time.Now()
	n := g.NumVertices()
	sk := &Skeleton{g: g, numBase: g.NumArcs(), rank: make([]int32, n)}

	// Live overlay adjacency as neighbor *sets*: parallel overlay arcs (many
	// triangles over one (u,w) pair) collapse to a single entry, which is all
	// the ordering scores and the pair enumeration need. Sets only ever hold
	// uncontracted vertices — a contraction removes itself from its
	// neighbors' sets on the way out.
	outAdj := make([]map[graph.Vertex]struct{}, n)
	inAdj := make([]map[graph.Vertex]struct{}, n)
	for v := 0; v < n; v++ {
		outAdj[v] = make(map[graph.Vertex]struct{})
		inAdj[v] = make(map[graph.Vertex]struct{})
	}
	for a := 0; a < g.NumArcs(); a++ {
		u, w := g.Tail(graph.Arc(a)), g.Head(graph.Arc(a))
		sk.tail = append(sk.tail, u)
		sk.head = append(sk.head, w)
		sk.via = append(sk.via, NoShortcut)
		if u != w {
			outAdj[u][w] = struct{}{}
			inAdj[w][u] = struct{}{}
		}
	}

	score := func(v graph.Vertex) int64 {
		ins, outs := int64(len(inAdj[v])), int64(len(outAdj[v]))
		return ins*outs - (ins + outs) // new triangles minus retired arcs
	}

	// Lazy-update heap: entries may be stale (a neighbor contracted since
	// the push), so every pop re-scores; a stale entry is replaced by a
	// current one and duplicates are skipped once the vertex is contracted.
	// Selection is deterministic: (score, vertex ID) ordering, and map
	// iteration never decides anything.
	h := make(skelHeap, 0, n)
	for v := 0; v < n; v++ {
		h = append(h, skelCand{graph.Vertex(v), score(graph.Vertex(v))})
	}
	heap.Init(&h)

	contracted := make([]bool, n)
	pos := 0
	for h.Len() > 0 {
		c := heap.Pop(&h).(skelCand)
		v := c.v
		if contracted[v] {
			continue
		}
		if s := score(v); s != c.score {
			heap.Push(&h, skelCand{v, s})
			continue
		}
		sk.rank[v] = int32(pos)
		pos++
		ins := sortedNeighbors(inAdj[v])
		outs := sortedNeighbors(outAdj[v])
		for _, u := range ins {
			for _, w := range outs {
				if u == w {
					continue
				}
				if len(sk.tail) >= maxSkelArcs {
					return nil, fmt.Errorf("ch: skeleton overlay exceeds %d arcs — ordering degenerated on this topology", maxSkelArcs)
				}
				sk.tail = append(sk.tail, u)
				sk.head = append(sk.head, w)
				sk.via = append(sk.via, v)
				outAdj[u][w] = struct{}{}
				inAdj[w][u] = struct{}{}
			}
		}
		for _, u := range ins {
			delete(outAdj[u], v)
		}
		for _, w := range outs {
			delete(inAdj[w], v)
		}
		contracted[v] = true
		// Eagerly refresh the scores of everything this contraction touched,
		// so the greedy choice tracks the live overlay instead of waiting for
		// a stale entry to surface.
		for _, u := range ins {
			heap.Push(&h, skelCand{u, score(u)})
		}
		for _, w := range outs {
			heap.Push(&h, skelCand{w, score(w)})
		}
	}
	// Appending left slack in the arrays; the skeleton lives as long as its
	// federation, so it keeps exact copies.
	sk.tail, sk.head, sk.via = slices.Clone(sk.tail), slices.Clone(sk.head), slices.Clone(sk.via)
	sk.stats = SkeletonStats{
		Shortcuts: sk.NumShortcuts(),
		WallTime:  time.Since(start),
	}
	return sk, nil
}

// sortedNeighbors materializes a neighbor set ascending by vertex ID so
// skeleton arc IDs are deterministic.
func sortedNeighbors(set map[graph.Vertex]struct{}) []graph.Vertex {
	out := make([]graph.Vertex, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// skelCand / skelHeap implement the lazy ordering queue of BuildSkeleton.
type skelCand struct {
	v     graph.Vertex
	score int64
}

type skelHeap []skelCand

func (h skelHeap) Len() int { return len(h) }
func (h skelHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].v < h[j].v
}
func (h skelHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *skelHeap) Push(x any)   { *h = append(*h, x.(skelCand)) }
func (h *skelHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Graph returns the graph the skeleton was contracted from.
func (sk *Skeleton) Graph() *graph.Graph { return sk.g }

// NumArcs reports the overlay arc count (base arcs + skeleton shortcuts).
func (sk *Skeleton) NumArcs() int { return len(sk.tail) }

// NumShortcuts reports how many topology shortcuts the skeleton holds.
func (sk *Skeleton) NumShortcuts() int { return len(sk.tail) - sk.numBase }

// Rank returns the contraction rank of v.
func (sk *Skeleton) Rank(v graph.Vertex) int32 { return sk.rank[v] }

// Stats reports the skeleton construction cost.
func (sk *Skeleton) Stats() SkeletonStats { return sk.stats }

// Levels reports the hierarchy depth (the level of the deepest shortcut,
// where a shortcut sits one level above the deepest member of its two child
// groups).
func (sk *Skeleton) Levels() int { return sk.Plan().maxLvl }

// CriticalPath reports the length, in ticks, of the customization sweep's
// comparison DAG: a full customization runs exactly this many Fed-SAC
// instances (mpc.RoundsPerCompare rounds each), whatever the weights.
func (sk *Skeleton) CriticalPath() int { return sk.Plan().ticks }

// custPlan is the metric-independent customization schedule derived once per
// skeleton and shared by every Customize run, in-place customized update and
// customized index's query lists.
//
// Overlay arcs with the same (tail, head) form a "pair group"; the merged-
// CCH weight of the ordered pair is the joint minimum over the group. Every
// group member is created strictly before any shortcut that reads the group
// (an arc into/out of a vertex z always predates z's contraction), so groups
// and the shortcuts reading them form a DAG in arc-ID order, and Index.sweep
// runs on its critical path. With t(base arc) = 0 the finishing ticks are
//
//	t(shortcut) = max T(child groups)
//	T(group)    = ⌈log2 Σ_members 2^t(member)⌉
//
// (halving the contenders each tick while members keep arriving leaves
// ⌈Σ_{t(m) ≤ τ} 2^t(m) / 2^τ⌉ of them after tick τ), and a full sweep takes
// max T ticks — a function of the public skeleton alone (DESIGN.md, "Contract
// once, customize per traffic version").
type custPlan struct {
	groupOf []int32 // overlay arc -> pair group
	// Shortcut i (arc ID - numBase) is the winner of group kids[2i], tail to
	// via, followed by the winner of group kids[2i+1], via to head.
	kids []int32
	// Groups are numbered in query-list order: those leaving v upward are
	// qStart[2v]:qStart[2v+1], those entering v from above
	// qStart[2v+1]:qStart[2v+2], each list by first member. A table indexed
	// by group — the index's winners — is therefore the query lists.
	qStart        []int32
	nGrp          int
	maxLvl, ticks int
}

// groupRows is the plan inverted, flat CSR with rows ascending: group g's
// member arcs are members[memStart[g]:memStart[g+1]], and
// cons[consStart[g]:consStart[g+1]] are the slots of kids that name g (slot/2
// is the reading shortcut). Only a sweep walks them, so it derives them —
// two linear passes — and drops them after: an idle index does not hold
// them.
type groupRows struct {
	memStart, members []int32
	consStart, cons   []int32
}

func (pl *custPlan) rows() *groupRows {
	r := &groupRows{}
	r.memStart, r.members = csr(pl.nGrp, pl.groupOf)
	r.consStart, r.cons = csr(pl.nGrp, pl.kids)
	return r
}

// group returns the member arcs of pair group g, ascending.
func (r *groupRows) group(g int32) []int32 { return r.members[r.memStart[g]:r.memStart[g+1]] }

// Plan returns the skeleton's customization schedule, computing it on first
// use.
func (sk *Skeleton) Plan() *custPlan {
	sk.planOnce.Do(func() { sk.plan = sk.computePlan() })
	return sk.plan
}

func (sk *Skeleton) computePlan() *custPlan {
	m, nb := len(sk.tail), sk.numBase
	pl := &custPlan{groupOf: make([]int32, m), kids: make([]int32, 2*(m-nb))}
	ids := make(map[[2]graph.Vertex]int32)
	id := func(u, w graph.Vertex) int32 {
		g, ok := ids[[2]graph.Vertex{u, w}]
		if !ok {
			g = int32(len(ids))
			ids[[2]graph.Vertex{u, w}] = g
		}
		return g
	}
	for a := 0; a < m; a++ {
		if a >= nb {
			pl.kids[2*(a-nb)] = id(sk.tail[a], sk.via[a])
			pl.kids[2*(a-nb)+1] = id(sk.via[a], sk.head[a])
		}
		pl.groupOf[a] = id(sk.tail[a], sk.head[a])
	}
	pl.nGrp = len(ids)
	// Renumber by query list, routed by rank as addArcToQueryLists routes an
	// arc: ids are in first-member order, which csr keeps within a row.
	list := make([]int32, pl.nGrp)
	for uw, g := range ids {
		if u, w := uw[0], uw[1]; sk.rank[w] > sk.rank[u] {
			list[g] = 2 * int32(u)
		} else {
			list[g] = 2*int32(w) + 1
		}
	}
	pl.qStart, list = csr(2*len(sk.rank), list)
	renum := make([]int32, pl.nGrp)
	for i, g := range list {
		renum[g] = int32(i)
	}
	for _, s := range [][]int32{pl.groupOf, pl.kids} {
		for i, g := range s {
			s[i] = renum[g]
		}
	}
	rw := pl.rows()

	// Finishing ticks and hierarchy levels (lvl(base arc) = 0, lvl(shortcut) =
	// 1 + max lvl over both child groups' members), in arc order: a group is
	// complete before its first reader, so its T is known by then.
	tArc, lvlArc := make([]int32, m), make([]int32, m)
	tGrp, lvlGrp := make([]int32, pl.nGrp), make([]int32, pl.nGrp)
	for g := range tGrp {
		tGrp[g] = -1
	}
	one, term, sum := big.NewInt(1), new(big.Int), new(big.Int)
	decided := func(g int32) int32 {
		if tGrp[g] < 0 {
			sum.SetInt64(0)
			for _, a := range rw.group(g) {
				sum.Add(sum, term.Lsh(one, uint(tArc[a])))
				lvlGrp[g] = max(lvlGrp[g], lvlArc[a])
			}
			tGrp[g] = int32(sum.Sub(sum, one).BitLen()) // ⌈log2 Σ 2^t⌉
		}
		return tGrp[g]
	}
	for a := nb; a < m; a++ {
		ga, gb := pl.kids[2*(a-nb)], pl.kids[2*(a-nb)+1]
		tArc[a] = max(decided(ga), decided(gb))
		lvlArc[a] = 1 + max(lvlGrp[ga], lvlGrp[gb])
		pl.maxLvl = max(pl.maxLvl, int(lvlArc[a]))
	}
	for g := range tGrp {
		pl.ticks = max(pl.ticks, int(decided(int32(g))))
	}
	return pl
}

// csr buckets the indices of key by their key (< buckets) into compressed
// sparse rows, each row ascending.
func csr(buckets int, key []int32) (start, items []int32) {
	start = make([]int32, buckets+1)
	for _, k := range key {
		start[k+1]++
	}
	for b := 0; b < buckets; b++ {
		start[b+1] += start[b]
	}
	items = make([]int32, len(key))
	fill := slices.Clone(start[:buckets])
	for i, k := range key {
		items[fill[k]] = int32(i)
		fill[k]++
	}
	return start, items
}
