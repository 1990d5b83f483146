package ch

import (
	"container/heap"
	"sort"

	"repro/internal/graph"
)

// DefaultWitnessCap bounds the number of vertices a (plaintext or federated)
// witness search settles. When the cap is hit before a target settles, the
// shortcut is added conservatively — extra shortcuts never hurt correctness,
// they only grow the index.
const DefaultWitnessCap = 80

// Ordering selects the vertex-importance heuristic for the public ordering
// phase. The paper's framework supports "various underlying algorithms"
// (§IV); both orderings are deterministic functions of public data, so every
// silo derives the same contraction order.
type Ordering string

const (
	// OrderEdgeDiff is the classic lazy-updated edge-difference heuristic
	// (contraction-hierarchy quality; the default).
	OrderEdgeDiff Ordering = "edge-diff"
	// OrderDegree contracts vertices in ascending degree, the simple
	// "importance" example the paper mentions — cheaper ordering phase,
	// larger index.
	OrderDegree Ordering = "degree"
)

// computeOrderDegree orders vertices by ascending current degree with lazy
// updates (degree grows as shortcuts attach to neighbors of contracted
// vertices). Purely topological — no weights at all.
func computeOrderDegree(g *graph.Graph) []graph.Vertex {
	n := g.NumVertices()
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v)))
	}
	contracted := make([]bool, n)
	h := &prioHeap{}
	for v := 0; v < n; v++ {
		heap.Push(h, prioItem{graph.Vertex(v), deg[v]})
	}
	order := make([]graph.Vertex, 0, n)
	for h.Len() > 0 {
		top := heap.Pop(h).(prioItem)
		if contracted[top.v] {
			continue
		}
		if deg[top.v] > top.p {
			heap.Push(h, prioItem{top.v, deg[top.v]})
			continue
		}
		contracted[top.v] = true
		order = append(order, top.v)
		// Contracting v can add shortcuts among its neighbors: approximate
		// the degree growth by bumping each uncontracted neighbor.
		for _, u := range g.OutNeighbors(top.v) {
			if !contracted[u] {
				deg[u]++
			}
		}
	}
	return order
}

// computeOrder derives the contraction order (ascending importance) from the
// public static weights W0 with the classic lazy-update heuristic:
// priority(v) = 2·edgeDifference(v) + contractedNeighbors(v). Because W0 is
// shared and the procedure is deterministic, every silo computes the same
// order — the paper's requirement that shortcut *selection* be independent of
// the private weights.
func computeOrder(g *graph.Graph, w0 graph.Weights) []graph.Vertex {
	n := g.NumVertices()
	// Working adjacency with min weight per vertex pair.
	out := make([]map[graph.Vertex]int64, n)
	in := make([]map[graph.Vertex]int64, n)
	for v := 0; v < n; v++ {
		out[v] = make(map[graph.Vertex]int64, 4)
		in[v] = make(map[graph.Vertex]int64, 4)
	}
	for a := 0; a < g.NumArcs(); a++ {
		u, w := g.Tail(graph.Arc(a)), g.Head(graph.Arc(a))
		if u == w {
			continue
		}
		if old, ok := out[u][w]; !ok || w0[a] < old {
			out[u][w] = w0[a]
			in[w][u] = w0[a]
		}
	}
	contracted := make([]bool, n)
	deleted := make([]int32, n)

	// witnessPlain runs a capped Dijkstra from u, skipping v, and reports
	// the settled distances of the requested targets.
	witnessCap := DefaultWitnessCap
	witnessPlain := func(u, v graph.Vertex, targets map[graph.Vertex]int64) map[graph.Vertex]int64 {
		maxVia := int64(0)
		for _, c := range targets {
			if c > maxVia {
				maxVia = c
			}
		}
		dist := map[graph.Vertex]int64{u: 0}
		settledD := make(map[graph.Vertex]int64, len(targets))
		var h graph.MinHeap
		h.Push(u, 0)
		settles, found := 0, 0
		settled := map[graph.Vertex]bool{}
		for h.Len() > 0 && settles < witnessCap && found < len(targets) {
			y, dy := h.Pop()
			if settled[y] || dy > maxVia {
				if dy > maxVia {
					break
				}
				continue
			}
			settled[y] = true
			settles++
			settledD[y] = dy
			if _, isTarget := targets[y]; isTarget {
				found++
			}
			// Relax in sorted neighbor order: under the settle cap, the
			// heap's tie order decides WHICH vertices settle, so map
			// iteration order must not leak into the result — the ordering
			// (and with it the whole build) must be reproducible run to run.
			nbrs := make([]graph.Vertex, 0, len(out[y]))
			for z := range out[y] {
				nbrs = append(nbrs, z)
			}
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
			for _, z := range nbrs {
				if z == v || contracted[z] {
					continue
				}
				if nd := dy + out[y][z]; !settled[z] {
					if old, ok := dist[z]; !ok || nd < old {
						dist[z] = nd
						h.Push(z, nd)
					}
				}
			}
		}
		return settledD
	}

	// simulate counts how many shortcuts contracting v would add right now.
	simulate := func(v graph.Vertex) (needed int, pairs [][2]graph.Vertex) {
		for u := range in[v] {
			if contracted[u] {
				continue
			}
			targets := make(map[graph.Vertex]int64)
			for w := range out[v] {
				if w != u && !contracted[w] {
					targets[w] = in[v][u] + out[v][w]
				}
			}
			if len(targets) == 0 {
				continue
			}
			settledD := witnessPlain(u, v, targets)
			for w, via := range targets {
				// A witness skips the shortcut only when STRICTLY shorter,
				// mirroring the federated contraction's tie rule (see
				// Index.propose).
				d, ok := settledD[w]
				if !ok || via <= d {
					needed++
					pairs = append(pairs, [2]graph.Vertex{u, w})
				}
			}
		}
		return needed, pairs
	}

	degree := func(v graph.Vertex) int {
		d := 0
		for u := range in[v] {
			if !contracted[u] {
				d++
			}
		}
		for w := range out[v] {
			if !contracted[w] {
				d++
			}
		}
		return d
	}
	priority := func(v graph.Vertex) int32 {
		needed, _ := simulate(v)
		return int32(2*(needed-degree(v))) + deleted[v]
	}

	// Lazy-update contraction loop.
	h := &prioHeap{}
	for v := 0; v < n; v++ {
		heap.Push(h, prioItem{graph.Vertex(v), priority(graph.Vertex(v))})
	}
	order := make([]graph.Vertex, 0, n)
	for h.Len() > 0 {
		top := (*h)[0]
		np := priority(top.v)
		if np > top.p && h.Len() > 1 {
			(*h)[0].p = np
			heap.Fix(h, 0)
			continue
		}
		heap.Pop(h)
		v := top.v
		// Contract v in the working graph.
		_, pairs := simulate(v)
		for _, pr := range pairs {
			u, w := pr[0], pr[1]
			via := in[v][u] + out[v][w]
			if old, ok := out[u][w]; !ok || via < old {
				out[u][w] = via
				in[w][u] = via
			}
		}
		for u := range in[v] {
			delete(out[u], v)
			if !contracted[u] {
				deleted[u]++
			}
		}
		for w := range out[v] {
			delete(in[w], v)
			if !contracted[w] {
				deleted[w]++
			}
		}
		contracted[v] = true
		order = append(order, v)
	}
	return order
}

// prioHeap implements container/heap for the lazy ordering queue.
type prioItem struct {
	v graph.Vertex
	p int32
}

type prioHeap []prioItem

func (h prioHeap) Len() int            { return len(h) }
func (h prioHeap) Less(i, j int) bool  { return h[i].p < h[j].p }
func (h prioHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x interface{}) { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
