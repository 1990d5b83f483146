package graph

// Strongly connected components for ingestion-scale graphs. Real DIMACS
// road networks are not strongly connected (one-way ramps and clipped
// boundary roads leave thousands of satellite components); queries and CH
// contraction assume mutual reachability, so the importer extracts the
// largest SCC. The implementation is an iterative Kosaraju over the CSR
// arrays — explicit stacks, no recursion — so it handles 10^7-vertex
// graphs without growing goroutine stacks. It is the package's one
// connectivity pass.

// sccLabels runs Kosaraju and returns per-vertex component labels, the
// label of the largest component (-1 when the graph is empty) and the
// component count.
func sccLabels(g *Graph) (comp []int32, best int32, count int32) {
	n := g.numV
	if n == 0 {
		return nil, -1, 0
	}
	// Pass 1: finishing order via iterative DFS on out-adjacency.
	order := make([]Vertex, 0, n)
	state := make([]int32, n) // next out-arc index to explore; -1 = unvisited marker via visited bitmap
	visited := make([]bool, n)
	stack := make([]Vertex, 0, 64)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		stack = append(stack, Vertex(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			outs := g.OutNeighbors(v)
			advanced := false
			for state[v] < int32(len(outs)) {
				w := outs[state[v]]
				state[v]++
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
					advanced = true
					break
				}
			}
			if !advanced && state[v] >= int32(len(outs)) {
				order = append(order, v)
				stack = stack[:len(stack)-1]
			}
		}
	}
	// Pass 2: sweep the finishing order backwards, flooding on in-adjacency.
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var bestSize int32
	best = -1
	for i := n - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] >= 0 {
			continue
		}
		label := count
		count++
		var size int32
		comp[root] = label
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			ins, _ := g.InNeighbors(v)
			for _, u := range ins {
				if comp[u] < 0 {
					comp[u] = label
					stack = append(stack, u)
				}
			}
		}
		if size > bestSize {
			bestSize, best = size, label
		}
	}
	return comp, best, count
}

// InducedSubgraph extracts the subgraph induced by keep (ascending, no
// duplicates): kept vertices are renumbered densely in keep order, arcs
// between kept vertices retain their relative order (so arc IDs stay
// CSR-stable), and weights and coordinates are remapped alongside. w may
// be nil. The old→new vertex mapping is returned with NoVertex marking
// dropped vertices.
func InducedSubgraph(g *Graph, w Weights, keep []Vertex) (*Graph, Weights, []Vertex) {
	remap := make([]Vertex, g.numV)
	for i := range remap {
		remap[i] = NoVertex
	}
	for i, v := range keep {
		remap[v] = Vertex(i)
	}
	csr := NewCSRBuilder(len(keep))
	for _, v := range keep {
		for _, h := range g.OutNeighbors(v) {
			if remap[h] != NoVertex {
				csr.Count(remap[v])
			}
		}
	}
	csr.FinishCount()
	for _, v := range keep {
		for i := g.off[v]; i < g.off[v+1]; i++ {
			h := g.dst[i]
			if remap[h] == NoVertex {
				continue
			}
			var wt int64
			if w != nil {
				wt = w[i]
			}
			csr.Place(remap[v], remap[h], wt)
		}
	}
	if g.HasCoordinates() {
		xs := make([]float64, len(keep))
		ys := make([]float64, len(keep))
		for i, v := range keep {
			xs[i], ys[i] = g.x[v], g.y[v]
		}
		csr.SetCoordinates(xs, ys)
	}
	sub, wts, err := csr.Finish()
	if err != nil {
		// Count and Place iterate the same arcs; a mismatch is impossible.
		panic(err)
	}
	if w == nil {
		wts = nil
	}
	return sub, wts, remap
}
