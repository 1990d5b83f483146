package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTo serializes the graph and an optional weight set in a DIMACS-like
// text format:
//
//	p sp <numVertices> <numArcs>
//	v <id> <x> <y>          (one per vertex, only when coordinates exist)
//	a <tail> <head> <weight> (one per arc, in arc-ID order; weight 0 if w nil)
//
// Vertex IDs are written 0-based (ReadFrom accepts both 0- and 1-based).
func WriteTo(wr io.Writer, g *Graph, w Weights) error {
	bw := bufio.NewWriter(wr)
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), g.NumArcs()); err != nil {
		return err
	}
	if g.HasCoordinates() {
		for v := 0; v < g.NumVertices(); v++ {
			if _, err := fmt.Fprintf(bw, "v %d %g %g\n", v, g.x[v], g.y[v]); err != nil {
				return err
			}
		}
	}
	for a := 0; a < g.NumArcs(); a++ {
		var wt int64
		if w != nil {
			wt = w[a]
		}
		if _, err := fmt.Fprintf(bw, "a %d %d %d\n", g.Tail(Arc(a)), g.Head(Arc(a)), wt); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrom parses the format written by WriteTo as well as standard
// 9th-DIMACS-challenge .gr files, with ImportDIMACS's record parser (scanGR).
// Arc IDs in the returned graph match line order of the "a" records, so the
// returned weight set is aligned.
//
// The problem-line kind must be "sp". Comment lines starting with "c" are
// ignored. Vertex IDs may be 0-based (this repo's format) or 1-based (the
// DIMACS convention); the base is auto-detected: any reference to id n
// (with n the declared vertex count) marks the input 1-based, referencing
// both 0 and n is an error, and inputs touching neither extreme parse as
// 0-based for round-trip compatibility with WriteTo.
//
// What the parse allocates follows its input, not its header: arcs are
// staged by append, and the coordinate arrays are allocated on the first "v"
// record. The declared vertex count still sizes the CSR arrays, which are
// built with a counting two-pass instead of a sort.
func ReadFrom(rd io.Reader) (*Graph, Weights, error) {
	n, m := -1, -1
	var tails, heads []int32 // raw (unshifted) endpoint ids
	var wts []int64
	var xs, ys []float64 // raw-id indexed, length n+1 to admit 1-based ids
	minID, maxID := int32(1<<30), int32(-1)
	seen := func(id int64) {
		minID, maxID = min(minID, int32(id)), max(maxID, int32(id))
	}
	err := scanGR(rd, func(pn, pm int64) error {
		if pn > 1<<28 || pm > 1<<30 {
			return fmt.Errorf("graph: implausible problem line p sp %d %d", pn, pm)
		}
		n, m = int(pn), int(pm)
		return nil
	}, func(u, v, w, _ int64) error {
		if u < 0 || u > int64(n) || v < 0 || v > int64(n) {
			return fmt.Errorf("graph: arc (%d,%d) out of range", u, v)
		}
		if len(tails) == m {
			return fmt.Errorf("graph: problem line declares %d arcs, found more", m)
		}
		seen(u)
		seen(v)
		tails, heads, wts = append(tails, int32(u)), append(heads, int32(v)), append(wts, w)
		return nil
	}, func(id int64, x, y float64) error {
		if id < 0 || id > int64(n) {
			return fmt.Errorf("graph: vertex id %d out of range", id)
		}
		seen(id)
		if xs == nil {
			xs, ys = make([]float64, n+1), make([]float64, n+1)
		}
		xs[id], ys[id] = x, y
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(tails) != m {
		return nil, nil, fmt.Errorf("graph: problem line declares %d arcs, found %d", m, len(tails))
	}

	// Decide the ID base. An id equal to n can only occur 1-based; an id 0
	// can only occur 0-based; both at once is malformed input.
	base := int32(0)
	if maxID >= 0 && int(maxID) == n {
		if minID == 0 {
			return nil, nil, fmt.Errorf("graph: input references both vertex 0 and vertex %d — mixed 0- and 1-based ids", n)
		}
		base = 1
	}
	// With a 0-based input, id n-1 is the maximum; the scan admitted up to n
	// to defer base detection, so re-check now that the base is known.
	if base == 0 && n > 0 && int(maxID) >= n {
		return nil, nil, fmt.Errorf("graph: vertex id %d out of range [0,%d)", maxID, n)
	}

	csr := NewCSRBuilder(n)
	for i := 0; i < m; i++ {
		csr.Count(Vertex(tails[i] - base))
	}
	csr.FinishCount()
	for i := 0; i < m; i++ {
		csr.Place(Vertex(tails[i]-base), Vertex(heads[i]-base), wts[i])
	}
	tails, heads, wts = nil, nil, nil // release staging before the reverse arrays allocate
	if xs != nil {
		csr.SetCoordinates(xs[base:int32(n)+base], ys[base:int32(n)+base])
	}
	return csr.Finish()
}
