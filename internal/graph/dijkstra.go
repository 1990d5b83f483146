package graph

import (
	"fmt"
	"slices"
)

// InfCost is the sentinel "unreachable" cost. It is far below overflow range
// so that InfCost+weight never wraps.
const InfCost int64 = 1 << 60

// MaxWeight bounds every edge weight, and MaxPathCost bounds every path cost
// representable by the federation (see DESIGN.md, fixed-point discipline).
// The MPC comparison circuit relies on |joint cost difference| < 2^41.
const (
	MaxWeight   int64 = 1 << 32
	MaxPathCost int64 = 1 << 40
)

// Weights is a per-arc weight set: Weights[a] is the travel time of arc a in
// milliseconds. A silo's private traffic observation is one Weights value.
type Weights = []int64

// ValidateWeights checks that w covers every arc of g with a positive weight
// below MaxWeight.
func ValidateWeights(g *Graph, w Weights) error {
	if len(w) != g.NumArcs() {
		return fmt.Errorf("graph: weight set has %d entries, graph has %d arcs", len(w), g.NumArcs())
	}
	for a, wt := range w {
		if wt <= 0 {
			return fmt.Errorf("graph: arc %d has non-positive weight %d", a, wt)
		}
		if wt >= MaxWeight {
			return fmt.Errorf("graph: arc %d weight %d exceeds MaxWeight", a, wt)
		}
	}
	return nil
}

// JointWeights materializes the weighted joint road network's weight set: the
// per-arc average of the silos' weight sets (paper Eq. 1). To stay in integer
// arithmetic the average is computed in fixed point: the returned weights are
// scaled by len(sets), i.e. joint[a] = Σ_p sets[p][a]. Scaling by a constant
// factor P preserves shortest paths and all cost comparisons, which is also
// why Fed-SAC can compare sums instead of means.
func JointWeights(sets []Weights) Weights {
	if len(sets) == 0 {
		return nil
	}
	joint := make(Weights, len(sets[0]))
	for _, w := range sets {
		if len(w) != len(joint) {
			panic("graph: inconsistent weight set sizes")
		}
		for a, wt := range w {
			joint[a] += wt
		}
	}
	return joint
}

// PathCost sums the weights of a path given as a vertex sequence. It returns
// an error if the sequence is not a connected path in g.
func PathCost(g *Graph, w Weights, path []Vertex) (int64, error) {
	var total int64
	for i := 0; i+1 < len(path); i++ {
		a := g.FindArc(path[i], path[i+1])
		if a == NoArc {
			return 0, fmt.Errorf("graph: no arc from %d to %d", path[i], path[i+1])
		}
		total += w[a]
	}
	return total, nil
}

// MinHeap is a binary min-heap on (vertex, key) pairs. Decrease-key is lazy:
// push the vertex again with its new key and skip the stale entry at pop.
// Equal keys pop in an order fixed by the push sequence, so a search over it
// is reproducible run to run.
type MinHeap struct {
	vs   []Vertex
	keys []int64
}

// Len reports the number of entries, stale ones included.
func (h *MinHeap) Len() int { return len(h.vs) }

// Push inserts v with key k.
func (h *MinHeap) Push(v Vertex, k int64) {
	h.vs = append(h.vs, v)
	h.keys = append(h.keys, k)
	i := len(h.vs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= h.keys[i] {
			break
		}
		h.vs[p], h.vs[i] = h.vs[i], h.vs[p]
		h.keys[p], h.keys[i] = h.keys[i], h.keys[p]
		i = p
	}
}

// Pop removes and returns an entry of least key. The heap must not be empty.
func (h *MinHeap) Pop() (Vertex, int64) {
	v, k := h.vs[0], h.keys[0]
	n := len(h.vs) - 1
	h.vs[0], h.keys[0] = h.vs[n], h.keys[n]
	h.vs, h.keys = h.vs[:n], h.keys[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.keys[l] < h.keys[s] {
			s = l
		}
		if r < n && h.keys[r] < h.keys[s] {
			s = r
		}
		if s == i {
			break
		}
		h.vs[s], h.vs[i] = h.vs[i], h.vs[s]
		h.keys[s], h.keys[i] = h.keys[i], h.keys[s]
		i = s
	}
	return v, k
}

// Search is the one plaintext shortest-path search: Dijkstra from a root
// over one weight set, settled on demand. A forward search finds distances
// from the root; a backward one searches reversed arcs and finds distances
// to it. It runs to the end (Dijkstra), up to a target (DijkstraTo, DistTo)
// or one vertex at a time in settle order (Next). Fed-AMPS keeps one
// backward and one forward Search per silo per query so that its repeated
// estimations amortize to a single local Dijkstra (paper §V).
type Search struct {
	// Dist[v] is the shortest distance between the root and v once v is
	// settled, the best found so far before, and InfCost while unreached.
	Dist []int64
	// PArc[v] is v's arc in the shortest-path tree: into v going forward,
	// out of v toward the root going backward. NoArc at the root and at
	// unreached vertices.
	PArc []Arc

	g        *Graph
	w        Weights
	backward bool
	settled  []bool
	h        MinHeap
}

// NewSearch starts a search from root under w, over reversed arcs if
// backward is true. Nothing is settled yet.
func NewSearch(g *Graph, w Weights, root Vertex, backward bool) *Search {
	n := g.NumVertices()
	s := &Search{
		Dist:     make([]int64, n),
		PArc:     make([]Arc, n),
		g:        g,
		w:        w,
		backward: backward,
		settled:  make([]bool, n),
	}
	for i := range s.Dist {
		s.Dist[i] = InfCost
		s.PArc[i] = NoArc
	}
	s.Dist[root] = 0
	s.h.Push(root, 0)
	return s
}

// Dijkstra computes shortest paths from s to every vertex under w.
func Dijkstra(g *Graph, w Weights, s Vertex) *Search {
	x := NewSearch(g, w, s, false)
	for _, ok := x.Next(); ok; _, ok = x.Next() {
	}
	return x
}

// DijkstraTo computes the shortest distance and path from s to t, stopping
// once t is settled. The path is nil when t is unreachable.
func DijkstraTo(g *Graph, w Weights, s, t Vertex) (int64, []Vertex) {
	x := NewSearch(g, w, s, false)
	return x.DistTo(t), x.Path(t)
}

// Next settles the unsettled vertex nearest the root, relaxes its arcs and
// returns it; false once every reachable vertex is settled. Vertices come in
// non-decreasing Dist, and since weights are positive a vertex's parent
// always comes before it.
func (s *Search) Next() (Vertex, bool) {
	for s.h.Len() > 0 {
		v, dv := s.h.Pop()
		if s.settled[v] {
			continue
		}
		s.settled[v] = true
		if s.backward {
			in, arcs := s.g.InNeighbors(v)
			for i, u := range in {
				s.relax(u, arcs[i], dv)
			}
		} else {
			first := s.g.FirstOut(v)
			for i, u := range s.g.OutNeighbors(v) {
				s.relax(u, first+Arc(i), dv)
			}
		}
		return v, true
	}
	return NoVertex, false
}

func (s *Search) relax(u Vertex, a Arc, dv int64) {
	if nd := dv + s.w[a]; nd < s.Dist[u] {
		s.Dist[u] = nd
		s.PArc[u] = a
		s.h.Push(u, nd)
	}
}

// DistTo settles vertices until v is settled or the search runs out, and
// returns the shortest distance between the root and v in the search's
// direction; InfCost if v is unreachable.
func (s *Search) DistTo(v Vertex) int64 {
	for !s.settled[v] {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	return s.Dist[v]
}

// Parent returns v's neighbour in the tree, one step toward the root: its
// predecessor going forward, its successor going backward. NoVertex at the
// root and at unreached vertices.
func (s *Search) Parent(v Vertex) Vertex {
	a := s.PArc[v]
	switch {
	case a == NoArc:
		return NoVertex
	case s.backward:
		return s.g.Head(a)
	default:
		return s.g.Tail(a)
	}
}

// Path returns the tree path between the root and t in travel order — root
// to t going forward, t to root going backward — or nil if t is unreached.
// It is a shortest path once t is settled.
func (s *Search) Path(t Vertex) []Vertex {
	if s.Dist[t] >= InfCost {
		return nil
	}
	var path []Vertex
	for v := t; v != NoVertex; v = s.Parent(v) {
		path = append(path, v)
	}
	if !s.backward {
		slices.Reverse(path)
	}
	return path
}
