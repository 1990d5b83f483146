// Package graph provides the road-network substrate for FedRoad: a compact
// CSR-encoded directed graph with per-arc weights kept in external weight
// sets, one resumable plaintext Dijkstra (Search), deterministic road-network
// generators, and simple serialization.
//
// The graph itself carries only topology and coordinates. Weights live in
// separate []int64 slices indexed by Arc so that every federation silo can
// hold its own private weight set over the one shared topology, exactly as in
// the paper's problem statement (§II-A).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Vertex identifies a road junction. Vertices are dense integers in [0, n).
type Vertex int32

// Arc identifies a directed road segment. Arcs are dense integers in [0, m).
// An undirected road is represented by two arcs, one per direction, each with
// its own weight (the paper's networks carry "a positive weight in both
// directions").
type Arc int32

// NoVertex marks an absent vertex (e.g. no parent in a shortest-path tree).
const NoVertex Vertex = -1

// NoArc marks an absent arc.
const NoArc Arc = -1

// Graph is an immutable directed graph in CSR form with both out- and
// in-adjacency, plus planar coordinates used for landmark selection and
// geometric lower bounds.
type Graph struct {
	numV int

	// Out-adjacency. Arc IDs equal out-adjacency slot positions, so
	// out[off[v]+i] describes arc Arc(off[v]+i).
	off []int32
	dst []Vertex

	// In-adjacency, referencing the same arc IDs.
	roff []int32
	rsrc []Vertex
	rarc []Arc

	tail []Vertex // per arc
	// head is dst re-used: head(a) == dst[a].

	x, y []float64
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.numV }

// NumArcs reports the number of directed arcs.
func (g *Graph) NumArcs() int { return len(g.dst) }

// Tail returns the source vertex of arc a.
func (g *Graph) Tail(a Arc) Vertex { return g.tail[a] }

// Head returns the destination vertex of arc a.
func (g *Graph) Head(a Arc) Vertex { return g.dst[a] }

// OutDegree reports the number of outgoing arcs of v.
func (g *Graph) OutDegree(v Vertex) int { return int(g.off[v+1] - g.off[v]) }

// InDegree reports the number of incoming arcs of v.
func (g *Graph) InDegree(v Vertex) int { return int(g.roff[v+1] - g.roff[v]) }

// FirstOut returns the first out-arc ID of v; out-arcs of v are the
// contiguous range [FirstOut(v), FirstOut(v)+OutDegree(v)).
func (g *Graph) FirstOut(v Vertex) Arc { return Arc(g.off[v]) }

// OutNeighbors returns the heads of v's outgoing arcs. The slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(v Vertex) []Vertex { return g.dst[g.off[v]:g.off[v+1]] }

// InNeighbors returns the tails of v's incoming arcs together with the arc
// IDs. The slices alias internal storage and must not be modified.
func (g *Graph) InNeighbors(v Vertex) ([]Vertex, []Arc) {
	return g.rsrc[g.roff[v]:g.roff[v+1]], g.rarc[g.roff[v]:g.roff[v+1]]
}

// X returns the x-coordinate (longitude-like) of v.
func (g *Graph) X(v Vertex) float64 { return g.x[v] }

// Y returns the y-coordinate (latitude-like) of v.
func (g *Graph) Y(v Vertex) float64 { return g.y[v] }

// HasCoordinates reports whether the graph carries vertex coordinates.
func (g *Graph) HasCoordinates() bool { return len(g.x) == g.numV }

// EuclideanDistance returns the straight-line distance between u and v in
// coordinate units. It panics if the graph has no coordinates.
func (g *Graph) EuclideanDistance(u, v Vertex) float64 {
	dx := g.x[u] - g.x[v]
	dy := g.y[u] - g.y[v]
	return math.Sqrt(dx*dx + dy*dy)
}

// FindArc returns the ID of an arc from u to v, or NoArc if none exists.
// With parallel arcs, the one with the smallest ID is returned.
func (g *Graph) FindArc(u, v Vertex) Arc {
	for i := g.off[u]; i < g.off[u+1]; i++ {
		if g.dst[i] == v {
			return Arc(i)
		}
	}
	return NoArc
}

// Builder accumulates arcs and produces an immutable Graph.
//
// Arc IDs assigned by Build follow the CSR layout (sorted by tail, stable
// within a tail), not insertion order; callers must assign weights after
// Build, via the returned graph's arc IDs.
type Builder struct {
	n     int
	tails []Vertex
	heads []Vertex
	x, y  []float64
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// SetCoordinates records planar coordinates for all vertices. len(x) and
// len(y) must equal the vertex count.
func (b *Builder) SetCoordinates(x, y []float64) {
	if len(x) != b.n || len(y) != b.n {
		panic(fmt.Sprintf("graph: coordinates length %d,%d != vertex count %d", len(x), len(y), b.n))
	}
	b.x, b.y = x, y
}

// AddArc adds a directed arc from u to v.
func (b *Builder) AddArc(u, v Vertex) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.tails = append(b.tails, u)
	b.heads = append(b.heads, v)
}

// AddEdge adds an undirected road segment as two directed arcs.
func (b *Builder) AddEdge(u, v Vertex) {
	b.AddArc(u, v)
	b.AddArc(v, u)
}

// NumArcs reports the number of arcs added so far.
func (b *Builder) NumArcs() int { return len(b.tails) }

// Build produces the immutable graph. The builder may be reused afterwards,
// but arcs already added remain.
func (b *Builder) Build() *Graph {
	m := len(b.tails)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return b.tails[order[i]] < b.tails[order[j]] })

	g := &Graph{
		numV: b.n,
		off:  make([]int32, b.n+1),
		dst:  make([]Vertex, m),
		tail: make([]Vertex, m),
		x:    b.x,
		y:    b.y,
	}
	for _, idx := range order {
		g.off[b.tails[idx]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
	}
	pos := make([]int32, b.n)
	copy(pos, g.off[:b.n])
	for _, idx := range order {
		t := b.tails[idx]
		slot := pos[t]
		pos[t]++
		g.dst[slot] = b.heads[idx]
		g.tail[slot] = t
	}
	g.buildReverse()
	return g
}

// CSRBuilder assembles a Graph directly in its final CSR layout with two
// passes — count out-degrees, then place arcs — so peak memory during bulk
// construction is the finished arrays themselves plus one cursor slice.
// Builder stays the convenient API for small or incremental topologies;
// CSRBuilder is the ingestion path (DIMACS import, binary snapshots) where
// Builder's staging copies and sort would triple the footprint.
//
// Usage: NewCSRBuilder(n) → Count(u) once per arc → FinishCount() →
// Place(u, v, w) once per arc → Finish(). Arcs with the same tail receive
// IDs in Place order, matching Builder's stable-within-tail rule, so a
// Count/Place sequence in file order reproduces Builder.Build exactly.
type CSRBuilder struct {
	n       int
	off     []int32
	dst     []Vertex
	tail    []Vertex
	w       []int64
	pos     []int32
	counted int
	placed  int
	x, y    []float64
}

// NewCSRBuilder starts a two-pass build for a graph with n vertices.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &CSRBuilder{n: n, off: make([]int32, n+1)}
}

// Count registers one arc with tail u (pass one).
func (b *CSRBuilder) Count(u Vertex) {
	if u < 0 || int(u) >= b.n {
		panic(fmt.Sprintf("graph: tail %d out of range [0,%d)", u, b.n))
	}
	b.off[u+1]++
	b.counted++
}

// FinishCount turns the degree counts into CSR offsets and allocates the
// arc arrays. Call exactly once, after the counting pass.
func (b *CSRBuilder) FinishCount() {
	if b.dst != nil {
		panic("graph: FinishCount called twice")
	}
	for v := 0; v < b.n; v++ {
		b.off[v+1] += b.off[v]
	}
	m := b.counted
	b.dst = make([]Vertex, m)
	b.tail = make([]Vertex, m)
	b.w = make([]int64, m)
	b.pos = make([]int32, b.n)
	copy(b.pos, b.off[:b.n])
}

// Place stores one arc u→v with weight wt into its CSR slot (pass two).
// Every arc counted in pass one must be placed exactly once.
func (b *CSRBuilder) Place(u, v Vertex, wt int64) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	slot := b.pos[u]
	if slot >= b.off[u+1] {
		panic(fmt.Sprintf("graph: more arcs placed for tail %d than counted", u))
	}
	b.pos[u] = slot + 1
	b.dst[slot] = v
	b.tail[slot] = u
	b.w[slot] = wt
	b.placed++
}

// SetCoordinates records planar coordinates for all vertices; len(x) and
// len(y) must equal the vertex count.
func (b *CSRBuilder) SetCoordinates(x, y []float64) {
	if len(x) != b.n || len(y) != b.n {
		panic(fmt.Sprintf("graph: coordinates length %d,%d != vertex count %d", len(x), len(y), b.n))
	}
	b.x, b.y = x, y
}

// Finish validates the two passes matched and produces the immutable graph
// plus the weight set aligned to its arc IDs. The builder must not be
// reused afterwards.
func (b *CSRBuilder) Finish() (*Graph, Weights, error) {
	if b.dst == nil {
		return nil, nil, fmt.Errorf("graph: Finish before FinishCount")
	}
	if b.placed != b.counted {
		return nil, nil, fmt.Errorf("graph: counted %d arcs but placed %d", b.counted, b.placed)
	}
	b.pos = nil // release cursors before the reverse arrays allocate
	g := &Graph{
		numV: b.n,
		off:  b.off,
		dst:  b.dst,
		tail: b.tail,
		x:    b.x,
		y:    b.y,
	}
	g.buildReverse()
	return g, b.w, nil
}

// MemoryFootprint reports the resident bytes of the graph's CSR arrays
// (forward and reverse adjacency plus coordinates). Weight sets are
// external and cost 8 bytes per arc each on top of this.
func (g *Graph) MemoryFootprint() int64 {
	b := int64(len(g.off))*4 + int64(len(g.dst))*4 + int64(len(g.tail))*4
	b += int64(len(g.roff))*4 + int64(len(g.rsrc))*4 + int64(len(g.rarc))*4
	b += int64(len(g.x))*8 + int64(len(g.y))*8
	return b
}

func (g *Graph) buildReverse() {
	m := len(g.dst)
	g.roff = make([]int32, g.numV+1)
	g.rsrc = make([]Vertex, m)
	g.rarc = make([]Arc, m)
	for _, h := range g.dst {
		g.roff[h+1]++
	}
	for v := 0; v < g.numV; v++ {
		g.roff[v+1] += g.roff[v]
	}
	pos := make([]int32, g.numV)
	copy(pos, g.roff[:g.numV])
	for a := 0; a < m; a++ {
		h := g.dst[a]
		slot := pos[h]
		pos[h]++
		g.rsrc[slot] = g.tail[a]
		g.rarc[slot] = Arc(a)
	}
}

// Connected reports whether the graph is weakly connected (used by
// generators to validate topology).
func (g *Graph) Connected() bool {
	if g.numV == 0 {
		return true
	}
	seen := make([]bool, g.numV)
	stack := []Vertex{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.OutNeighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
		in, _ := g.InNeighbors(v)
		for _, w := range in {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.numV
}

// StronglyConnected reports whether every vertex can reach every other vertex
// following arc directions. Generators producing two arcs per road always
// yield strongly connected graphs when weakly connected.
func (g *Graph) StronglyConnected() bool {
	if g.numV == 0 {
		return true
	}
	reach := func(forward bool) int {
		seen := make([]bool, g.numV)
		stack := []Vertex{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var nbrs []Vertex
			if forward {
				nbrs = g.OutNeighbors(v)
			} else {
				nbrs, _ = g.InNeighbors(v)
			}
			for _, w := range nbrs {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count
	}
	return reach(true) == g.numV && reach(false) == g.numV
}
