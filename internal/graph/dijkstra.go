package graph

import "fmt"

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

// intHeap is a minimal indexed binary min-heap on (vertex, key) pairs used by
// the plaintext reference algorithms. It supports decrease-key via lazy
// insertion with a settled check at pop.
type intHeap struct {
	vs   []Vertex
	keys []int64
}

func (h *intHeap) push(v Vertex, k int64) {
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

func (h *intHeap) pop() (Vertex, int64) {
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

func (h *intHeap) empty() bool { return len(h.vs) == 0 }

// SSSPResult holds a full single-source shortest-path tree.
type SSSPResult struct {
	Dist   []int64  // Dist[v] = shortest distance from source; InfCost if unreachable
	Parent []Vertex // Parent[v] = predecessor on a shortest path; NoVertex at source/unreachable
	PArc   []Arc    // PArc[v] = arc into v on the tree; NoArc at source/unreachable
}

// Dijkstra computes shortest paths from s to all vertices under weight set w.
func Dijkstra(g *Graph, w Weights, s Vertex) *SSSPResult {
	n := g.NumVertices()
	res := &SSSPResult{
		Dist:   make([]int64, n),
		Parent: make([]Vertex, n),
		PArc:   make([]Arc, n),
	}
	for i := range res.Dist {
		res.Dist[i] = InfCost
		res.Parent[i] = NoVertex
		res.PArc[i] = NoArc
	}
	res.Dist[s] = 0
	h := &intHeap{}
	h.push(s, 0)
	settled := make([]bool, n)
	for !h.empty() {
		v, dv := h.pop()
		if settled[v] {
			continue
		}
		settled[v] = true
		first := g.FirstOut(v)
		for i, u := range g.OutNeighbors(v) {
			a := first + Arc(i)
			if nd := dv + w[a]; nd < res.Dist[u] {
				res.Dist[u] = nd
				res.Parent[u] = v
				res.PArc[u] = a
				h.push(u, nd)
			}
		}
	}
	return res
}

// DijkstraBackward computes shortest paths from every vertex *to* root by
// searching over reversed arcs: Dist[v] = dist(v → root). Parent[v] is the
// successor of v on a shortest v→root path and PArc[v] the arc from v to it.
func DijkstraBackward(g *Graph, w Weights, root Vertex) *SSSPResult {
	n := g.NumVertices()
	res := &SSSPResult{
		Dist:   make([]int64, n),
		Parent: make([]Vertex, n),
		PArc:   make([]Arc, n),
	}
	for i := range res.Dist {
		res.Dist[i] = InfCost
		res.Parent[i] = NoVertex
		res.PArc[i] = NoArc
	}
	res.Dist[root] = 0
	h := &intHeap{}
	h.push(root, 0)
	settled := make([]bool, n)
	for !h.empty() {
		v, dv := h.pop()
		if settled[v] {
			continue
		}
		settled[v] = true
		in, arcs := g.InNeighbors(v)
		for i, u := range in {
			a := arcs[i]
			if nd := dv + w[a]; nd < res.Dist[u] {
				res.Dist[u] = nd
				res.Parent[u] = v
				res.PArc[u] = a
				h.push(u, nd)
			}
		}
	}
	return res
}

// Path extracts the shortest path from the tree's source to t as a vertex
// sequence, or nil if t is unreachable.
func (r *SSSPResult) Path(t Vertex) []Vertex {
	if r.Dist[t] >= InfCost {
		return nil
	}
	var rev []Vertex
	for v := t; v != NoVertex; v = r.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DijkstraTo computes the shortest distance and path from s to t, stopping as
// soon as t is settled. The path is nil when t is unreachable.
func DijkstraTo(g *Graph, w Weights, s, t Vertex) (int64, []Vertex) {
	n := g.NumVertices()
	dist := make([]int64, n)
	parent := make([]Vertex, n)
	for i := range dist {
		dist[i] = InfCost
		parent[i] = NoVertex
	}
	dist[s] = 0
	h := &intHeap{}
	h.push(s, 0)
	settled := make([]bool, n)
	for !h.empty() {
		v, dv := h.pop()
		if settled[v] {
			continue
		}
		settled[v] = true
		if v == t {
			var rev []Vertex
			for u := t; u != NoVertex; u = parent[u] {
				rev = append(rev, u)
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return dv, rev
		}
		first := g.FirstOut(v)
		for i, u := range g.OutNeighbors(v) {
			a := first + Arc(i)
			if nd := dv + w[a]; nd < dist[u] {
				dist[u] = nd
				parent[u] = v
				h.push(u, nd)
			}
		}
	}
	return InfCost, nil
}

// LazySSSP incrementally settles vertices of a Dijkstra search from a fixed
// root, answering DistTo queries on demand. Direction Backward searches over
// reversed arcs, giving distances *to* the root. Fed-AMPS uses one LazySSSP
// per silo per query direction so that repeated estimations amortize to a
// single local Dijkstra (paper §V: local computation traded for accuracy).
type LazySSSP struct {
	g        *Graph
	w        Weights
	backward bool
	dist     []int64
	settled  []bool
	h        *intHeap
}

// NewLazySSSP creates a lazy search from root. If backward is true, DistTo(v)
// returns the distance from v to root (search over incoming arcs).
func NewLazySSSP(g *Graph, w Weights, root Vertex, backward bool) *LazySSSP {
	n := g.NumVertices()
	l := &LazySSSP{
		g:        g,
		w:        w,
		backward: backward,
		dist:     make([]int64, n),
		settled:  make([]bool, n),
		h:        &intHeap{},
	}
	for i := range l.dist {
		l.dist[i] = InfCost
	}
	l.dist[root] = 0
	l.h.push(root, 0)
	return l
}

// DistTo settles vertices until v is settled (or the search exhausts) and
// returns the shortest distance between root and v in the configured
// direction. Unreachable vertices report InfCost.
func (l *LazySSSP) DistTo(v Vertex) int64 {
	for !l.settled[v] && !l.h.empty() {
		u, du := l.h.pop()
		if l.settled[u] {
			continue
		}
		l.settled[u] = true
		if l.backward {
			in, arcs := l.g.InNeighbors(u)
			for i, x := range in {
				a := arcs[i]
				if nd := du + l.w[a]; nd < l.dist[x] {
					l.dist[x] = nd
					l.h.push(x, nd)
				}
			}
		} else {
			first := l.g.FirstOut(u)
			for i, x := range l.g.OutNeighbors(u) {
				a := first + Arc(i)
				if nd := du + l.w[a]; nd < l.dist[x] {
					l.dist[x] = nd
					l.h.push(x, nd)
				}
			}
		}
	}
	return l.dist[v]
}

// SettledCount reports how many vertices have been settled so far, a proxy
// for the local computation spent by Fed-AMPS.
func (l *LazySSSP) SettledCount() int {
	c := 0
	for _, s := range l.settled {
		if s {
			c++
		}
	}
	return c
}
