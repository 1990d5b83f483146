package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// Road classes mirror the hierarchy of real road networks (local streets,
// arterials, highways). Free-flow speed rises with class, which gives
// contraction hierarchies the "important vertex" structure they exploit.
type roadClass int

const (
	classLocal roadClass = iota
	classArterial
	classHighway
)

func (c roadClass) speed() float64 { // meters per second, free flow
	switch c {
	case classHighway:
		return 30
	case classArterial:
		return 17
	default:
		return 9
	}
}

// staticWeight converts a segment length in meters and a road class to a
// free-flow travel time in milliseconds — the public static weight set W0.
func staticWeight(lengthM float64, c roadClass) int64 {
	w := int64(math.Round(lengthM / c.speed() * 1000))
	if w < 1 {
		w = 1
	}
	return w
}

type unionFind struct{ parent, rank []int32 }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// GenerateGrid produces a rows×cols Manhattan-style road network with jittered
// junction positions, a hierarchy of arterials and highways on periodic grid
// lines, and a fraction of missing segments to break regularity while staying
// connected. It returns the graph and the public static weight set W0
// (free-flow travel times in ms). Deterministic in seed.
func GenerateGrid(rows, cols int, seed uint64) (*Graph, Weights) {
	if rows < 2 || cols < 2 {
		panic("graph: grid needs at least 2x2")
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	n := rows * cols
	const spacing = 400.0 // meters between junctions
	x := make([]float64, n)
	y := make([]float64, n)
	id := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			x[v] = (float64(c) + 0.3*(rng.Float64()-0.5)) * spacing
			y[v] = (float64(r) + 0.3*(rng.Float64()-0.5)) * spacing
		}
	}

	type cand struct {
		u, v Vertex
		cls  roadClass
	}
	classOf := func(line int) roadClass {
		switch {
		case line%24 == 0:
			return classHighway
		case line%6 == 0:
			return classArterial
		default:
			return classLocal
		}
	}
	var cands []cand
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				cands = append(cands, cand{id(r, c), id(r, c+1), classOf(r)})
			}
			if r+1 < rows {
				cands = append(cands, cand{id(r, c), id(r+1, c), classOf(c)})
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	uf := newUnionFind(n)
	b := NewBuilder(n)
	b.SetCoordinates(x, y)
	type kept struct {
		u, v Vertex
		cls  roadClass
	}
	var keptEdges []kept
	const dropProb = 0.18 // fraction of non-tree segments removed
	for _, e := range cands {
		if uf.union(int32(e.u), int32(e.v)) {
			keptEdges = append(keptEdges, kept{e.u, e.v, e.cls})
		} else if e.cls != classLocal || rng.Float64() >= dropProb {
			keptEdges = append(keptEdges, kept{e.u, e.v, e.cls})
		}
	}
	// Sort for deterministic arc IDs independent of shuffle order.
	sort.Slice(keptEdges, func(i, j int) bool {
		if keptEdges[i].u != keptEdges[j].u {
			return keptEdges[i].u < keptEdges[j].u
		}
		return keptEdges[i].v < keptEdges[j].v
	})
	for _, e := range keptEdges {
		b.AddEdge(e.u, e.v)
	}
	g := b.Build()

	w0 := make(Weights, g.NumArcs())
	// Recover class per arc from the kept list: both directions of an edge
	// share the class; look up via a map keyed by endpoints.
	cls := make(map[[2]Vertex]roadClass, len(keptEdges))
	for _, e := range keptEdges {
		cls[[2]Vertex{e.u, e.v}] = e.cls
		cls[[2]Vertex{e.v, e.u}] = e.cls
	}
	for a := 0; a < g.NumArcs(); a++ {
		u, v := g.Tail(Arc(a)), g.Head(Arc(a))
		w0[a] = staticWeight(g.EuclideanDistance(u, v), cls[[2]Vertex{u, v}])
	}
	return g, w0
}

// GenerateRoadLike produces an irregular planar-ish road network: n junctions
// placed uniformly in a square region, connected by k-nearest-neighbor
// segments plus whatever is needed for connectivity. A random subset of long
// segments is upgraded to arterial/highway class. Deterministic in seed.
func GenerateRoadLike(n int, seed uint64) (*Graph, Weights) {
	if n < 2 {
		panic("graph: road-like network needs at least 2 vertices")
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xdeadbeefcafef00d))
	// Region side scales with sqrt(n) to keep junction density constant.
	side := math.Sqrt(float64(n)) * 400.0
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * side
		y[i] = rng.Float64() * side
	}

	// Bucket grid for neighbor queries.
	cell := side / math.Sqrt(float64(n)) * 1.5
	cols := int(side/cell) + 1
	buckets := make(map[int][]Vertex)
	bidx := func(px, py float64) int {
		return int(py/cell)*cols + int(px/cell)
	}
	for i := 0; i < n; i++ {
		k := bidx(x[i], y[i])
		buckets[k] = append(buckets[k], Vertex(i))
	}
	dist2 := func(a, b Vertex) float64 {
		dx, dy := x[a]-x[b], y[a]-y[b]
		return dx*dx + dy*dy
	}
	nearest := func(v Vertex, k int) []Vertex {
		type cd struct {
			u Vertex
			d float64
		}
		var found []cd
		cx, cy := int(x[v]/cell), int(y[v]/cell)
		for ring := 1; ring <= 6; ring++ {
			found = found[:0]
			for dy := -ring; dy <= ring; dy++ {
				for dx := -ring; dx <= ring; dx++ {
					bx, by := cx+dx, cy+dy
					if bx < 0 || by < 0 || bx >= cols {
						continue
					}
					for _, u := range buckets[by*cols+bx] {
						if u != v {
							found = append(found, cd{u, dist2(v, u)})
						}
					}
				}
			}
			if len(found) >= k {
				break
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].d < found[j].d })
		if len(found) > k {
			found = found[:k]
		}
		out := make([]Vertex, len(found))
		for i, c := range found {
			out[i] = c.u
		}
		return out
	}

	type edge struct{ u, v Vertex }
	seen := make(map[edge]bool)
	var edges []edge
	addEdge := func(u, v Vertex) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	const kNN = 3
	for v := Vertex(0); int(v) < n; v++ {
		for _, u := range nearest(v, kNN) {
			addEdge(v, u)
		}
	}

	// Connect remaining components: link each non-root component's random
	// vertex to the nearest vertex in a different component.
	uf := newUnionFind(n)
	for _, e := range edges {
		uf.union(int32(e.u), int32(e.v))
	}
	for {
		comps := make(map[int32][]Vertex)
		for i := 0; i < n; i++ {
			r := uf.find(int32(i))
			comps[r] = append(comps[r], Vertex(i))
		}
		if len(comps) == 1 {
			break
		}
		// Pick the smallest component and link its closest vertex pair to the
		// rest of the graph (scan is fine: few, small components in practice).
		var smallRoot int32 = -1
		for r, vs := range comps {
			if smallRoot == -1 || len(vs) < len(comps[smallRoot]) {
				smallRoot = r
			}
		}
		bestD := math.Inf(1)
		var bu, bv Vertex = NoVertex, NoVertex
		for _, u := range comps[smallRoot] {
			for i := 0; i < n; i++ {
				if uf.find(int32(i)) == smallRoot {
					continue
				}
				if d := dist2(u, Vertex(i)); d < bestD {
					bestD, bu, bv = d, u, Vertex(i)
				}
			}
		}
		addEdge(bu, bv)
		uf.union(int32(bu), int32(bv))
	}

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	b := NewBuilder(n)
	b.SetCoordinates(x, y)
	for _, e := range edges {
		b.AddEdge(e.u, e.v)
	}
	g := b.Build()

	// Road classes: ~8% arterial, ~2% highway, chosen per undirected edge.
	cls := make(map[edge]roadClass, len(edges))
	for _, e := range edges {
		r := rng.Float64()
		switch {
		case r < 0.02:
			cls[e] = classHighway
		case r < 0.10:
			cls[e] = classArterial
		default:
			cls[e] = classLocal
		}
	}
	w0 := make(Weights, g.NumArcs())
	for a := 0; a < g.NumArcs(); a++ {
		u, v := g.Tail(Arc(a)), g.Head(Arc(a))
		e := edge{u, v}
		if e.u > e.v {
			e.u, e.v = e.v, e.u
		}
		w0[a] = staticWeight(g.EuclideanDistance(u, v), cls[e])
	}
	return g, w0
}

// GenerateRandomDirected produces a strongly connected random directed graph
// with n vertices and roughly m arcs plus a Hamiltonian cycle guaranteeing
// strong connectivity, with uniform random weights in [1, maxW]. It exists
// for tests and micro-benchmarks that need adversarial (non-road-like)
// topologies. Deterministic in seed.
func GenerateRandomDirected(n, m int, maxW int64, seed uint64) (*Graph, Weights) {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bf0a8b1451519fc))
	perm := rng.Perm(n)
	b := NewBuilder(n)
	type edge struct{ u, v Vertex }
	seen := make(map[edge]bool)
	add := func(u, v Vertex) {
		if u == v || seen[edge{u, v}] {
			return
		}
		seen[edge{u, v}] = true
		b.AddArc(u, v)
	}
	for i := 0; i < n; i++ {
		add(Vertex(perm[i]), Vertex(perm[(i+1)%n]))
	}
	for len(seen) < n+m {
		add(Vertex(rng.IntN(n)), Vertex(rng.IntN(n)))
	}
	g := b.Build()
	w := make(Weights, g.NumArcs())
	for a := range w {
		w[a] = 1 + rng.Int64N(maxW)
	}
	return g, w
}

// DatasetSpec describes one of the scaled evaluation datasets standing in for
// the paper's real road networks (Table I). Scale factors are documented in
// DESIGN.md.
type DatasetSpec struct {
	Name      string
	Region    string // region the paper's original covers
	PaperV    int    // vertex count in the paper's dataset
	PaperE    int    // edge count in the paper's dataset
	Vertices  int    // this repo's scaled vertex target
	Generator string // "grid" or "roadlike"
	Seed      uint64
}

// Datasets lists the scaled stand-ins for the paper's CAL, BJ and FLA
// networks, in the paper's order.
func Datasets() []DatasetSpec {
	return []DatasetSpec{
		{Name: "CAL-S", Region: "California", PaperV: 21048, PaperE: 43386, Vertices: 2048, Generator: "roadlike", Seed: 1001},
		{Name: "BJ-S", Region: "Beijing", PaperV: 338024, PaperE: 881050, Vertices: 8100, Generator: "grid", Seed: 1002},
		{Name: "FLA-S", Region: "Florida", PaperV: 1070376, PaperE: 2687902, Vertices: 20000, Generator: "roadlike", Seed: 1003},
	}
}

// FindDataset looks up a named dataset spec without materializing it — the
// non-panicking existence check for callers handling user-supplied names.
func FindDataset(name string) (DatasetSpec, bool) {
	for _, spec := range Datasets() {
		if spec.Name == name {
			return spec, true
		}
	}
	return DatasetSpec{}, false
}

// GenerateDataset materializes a named dataset. It panics on unknown names;
// callers taking names from user input should check FindDataset first.
func GenerateDataset(name string) (*Graph, Weights, DatasetSpec) {
	spec, ok := FindDataset(name)
	if !ok {
		panic(fmt.Sprintf("graph: unknown dataset %q", name))
	}
	g, w0 := GenerateSpec(spec)
	return g, w0, spec
}

// GenerateSpec builds the network a dataset spec describes, at the spec's
// vertex count: a caller scales a dataset down by lowering Vertices first.
func GenerateSpec(spec DatasetSpec) (*Graph, Weights) {
	switch spec.Generator {
	case "grid":
		side := int(math.Round(math.Sqrt(float64(spec.Vertices))))
		return GenerateGrid(side, side, spec.Seed)
	case "roadlike":
		return GenerateRoadLike(spec.Vertices, spec.Seed)
	default:
		panic("graph: unknown generator " + spec.Generator)
	}
}

// LoadNetwork resolves a command's road network from its three sources, in
// order: a graph file, a named dataset, or a generated road-like network of n
// junctions. unitWeights reports that the graph file carried no weight
// section and every travel time was fabricated as 1 (UnitIfMissing): the
// caller must say so loudly. An unknown dataset is an error that lists the
// available ones.
func LoadNetwork(dataset, file string, n int, seed uint64) (g *Graph, w0 Weights, unitWeights bool, err error) {
	switch {
	case file != "":
		if g, w0, err = LoadFile(file); err != nil {
			return nil, nil, false, err
		}
		w0, unitWeights = UnitIfMissing(g, w0)
	case dataset != "":
		if _, ok := FindDataset(dataset); !ok {
			var names []string
			for _, spec := range Datasets() {
				names = append(names, spec.Name)
			}
			return nil, nil, false, fmt.Errorf("unknown dataset %q (available: %s)", dataset, strings.Join(names, ", "))
		}
		g, w0, _ = GenerateDataset(dataset)
	default:
		g, w0 = GenerateRoadLike(n, seed)
	}
	return g, w0, unitWeights, nil
}
