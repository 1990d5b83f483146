package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Streaming importer for standard 9th-DIMACS-challenge road networks
// (http://www.diag.uniroma1.it/challenge9/). A .gr file declares
// "p sp n m" and lists arcs as "a u v w" with 1-based vertex IDs; the
// companion .co file lists coordinates as "v id x y". The importer makes
// two passes over the arc file — count degrees, then place into CSR slots
// — so peak memory is the final CSR arrays plus O(1) scratch, never a
// buffered arc list.

// ImportOptions configures ImportDIMACS.
type ImportOptions struct {
	// MaxVertices caps the imported vertex count: vertices with a
	// (0-based) ID ≥ MaxVertices and all arcs touching them are dropped.
	// 0 means unlimited.
	MaxVertices int
	// MaxArcs caps the number of imported arcs; arcs past the cap are
	// dropped in file order. 0 means unlimited.
	MaxArcs int
	// ZeroBased marks the input's vertex IDs as 0-based (this repo's
	// WriteTo output). Default false: the DIMACS convention, 1-based.
	ZeroBased bool
	// ClampMinWeight raises every arc weight below it to this floor.
	// DIMACS graphs contain zero-length arcs (coincident junction nodes)
	// that violate the positive-weight assumption of the query engines;
	// the importer default is 1. Negative disables clamping.
	ClampMinWeight int64
	// KeepAll skips largest-SCC extraction and keeps the graph as parsed.
	KeepAll bool
	// Progress, when non-nil, receives coarse progress callbacks:
	// stage is one of "count", "place", "coords", "scc"; done/total count
	// records within the stage (total may be 0 when unknown).
	Progress func(stage string, done, total int64)
}

// ImportStats reports what ImportDIMACS did.
type ImportStats struct {
	RawVertices  int   // vertex count declared by the problem line
	RawArcs      int   // arc count declared by the problem line
	KeptVertices int   // after caps, before SCC extraction
	KeptArcs     int   // after caps, before SCC extraction
	Clamped      int   // arc weights raised to ClampMinWeight
	Components   int32 // strongly connected components (0 when KeepAll)
	SCCVertices  int   // final vertex count after SCC extraction
	SCCArcs      int   // final arc count after SCC extraction
	OneBased     bool  // the ID base the import used
}

const progressStride = 1 << 20 // records between Progress callbacks

// ImportDIMACS ingests a DIMACS .gr arc file (via open, called once per
// pass) and an optional .co coordinate reader. It applies the vertex/arc
// caps and the weight floor from opt, then — unless opt.KeepAll — extracts
// the largest strongly connected component so the result satisfies the
// mutual-reachability assumption of the query engines. The returned
// weights hold the .gr travel times, arc-aligned with the graph.
func ImportDIMACS(open func() (io.ReadCloser, error), co io.Reader, opt ImportOptions) (*Graph, Weights, ImportStats, error) {
	var stats ImportStats
	stats.OneBased = !opt.ZeroBased
	base := int64(1)
	if opt.ZeroBased {
		base = 0
	}
	clamp := opt.ClampMinWeight
	progress := opt.Progress
	if progress == nil {
		progress = func(string, int64, int64) {}
	}

	// Pass 1: parse the problem line, count kept arcs per tail.
	rc, err := open()
	if err != nil {
		return nil, nil, stats, err
	}
	var csr *CSRBuilder
	n, m := -1, int64(-1)
	keptV := 0
	// keep reports whether an arc with raw endpoints u, v survives the
	// caps; both passes must agree, and they do because the decision
	// depends only on the (deterministic) endpoints and the running count
	// of kept arcs, which both passes compute identically in file order.
	kept := int64(0)
	keep := func(u, v int64) bool {
		if int(u) >= keptV || int(v) >= keptV {
			return false
		}
		if opt.MaxArcs > 0 && kept >= int64(opt.MaxArcs) {
			return false
		}
		return true
	}
	err = scanGR(rc, func(pn, pm int64) error {
		if pn > 1<<31-2 || pm > 1<<31-2 {
			return fmt.Errorf("graph: implausible problem line n=%d m=%d", pn, pm)
		}
		n, m = int(pn), pm
		keptV = n
		if opt.MaxVertices > 0 && opt.MaxVertices < keptV {
			keptV = opt.MaxVertices
		}
		csr = NewCSRBuilder(keptV)
		return nil
	}, func(u, v, _ int64, line int64) error {
		u -= base
		v -= base
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("graph: arc (%d,%d) out of range (base %d, n %d)", u+base, v+base, base, n)
		}
		if keep(u, v) {
			csr.Count(Vertex(u))
			kept++
		}
		if line%progressStride == 0 {
			progress("count", line, m)
		}
		return nil
	}, nil)
	rc.Close()
	if err != nil {
		return nil, nil, stats, err
	}
	if csr == nil {
		return nil, nil, stats, fmt.Errorf("graph: missing problem line")
	}
	stats.RawVertices, stats.RawArcs = n, int(m)
	stats.KeptVertices, stats.KeptArcs = keptV, int(kept)
	csr.FinishCount()

	// Pass 2: place arcs into their CSR slots, clamping weights. Inline
	// "v" coordinate records (this repo's text format) are collected here
	// unless a separate .co file was given — the DIMACS convention wins.
	var xs, ys []float64
	onV := func(id int64, x, y float64) error {
		id -= base
		if id < 0 || id >= int64(n) {
			return fmt.Errorf("graph: vertex id %d out of range", id+base)
		}
		if xs == nil {
			xs = make([]float64, keptV)
			ys = make([]float64, keptV)
		}
		if int(id) < keptV {
			xs[id], ys[id] = x, y
		}
		return nil
	}
	if co != nil {
		onV = nil
	}
	rc, err = open()
	if err != nil {
		return nil, nil, stats, err
	}
	kept = 0
	err = scanGR(rc, func(pn, pm int64) error {
		if int(pn) != n || pm != m {
			return fmt.Errorf("graph: file changed between passes (p %d %d, want %d %d)", pn, pm, n, m)
		}
		return nil
	}, func(u, v, w int64, line int64) error {
		u -= base
		v -= base
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("graph: arc (%d,%d) out of range (base %d, n %d)", u+base, v+base, base, n)
		}
		if keep(u, v) {
			if w < clamp {
				w = clamp
				stats.Clamped++
			}
			csr.Place(Vertex(u), Vertex(v), w)
			kept++
		}
		if line%progressStride == 0 {
			progress("place", line, m)
		}
		return nil
	}, onV)
	rc.Close()
	if err != nil {
		return nil, nil, stats, err
	}

	// Coordinates, applied before SCC extraction so they are remapped
	// alongside the vertices.
	if co != nil {
		xs = make([]float64, keptV)
		ys = make([]float64, keptV)
		if err := scanCO(co, base, int64(n), func(id int64, x, y float64, line int64) {
			if int(id) < keptV {
				xs[id], ys[id] = x, y
			}
			if line%progressStride == 0 {
				progress("coords", line, int64(n))
			}
		}); err != nil {
			return nil, nil, stats, err
		}
	}
	if xs != nil {
		csr.SetCoordinates(xs, ys)
	}

	g, w, err := csr.Finish()
	if err != nil {
		return nil, nil, stats, err
	}
	stats.SCCVertices, stats.SCCArcs = g.NumVertices(), g.NumArcs()
	if opt.KeepAll {
		return g, w, stats, nil
	}

	progress("scc", 0, int64(g.NumVertices()))
	comp, best, count := sccLabels(g)
	stats.Components = count
	if count > 1 {
		var keepVs []Vertex
		for v := 0; v < g.NumVertices(); v++ {
			if comp[v] == best {
				keepVs = append(keepVs, Vertex(v))
			}
		}
		g, w, _ = InducedSubgraph(g, w, keepVs)
	}
	stats.SCCVertices, stats.SCCArcs = g.NumVertices(), g.NumArcs()
	progress("scc", int64(g.NumVertices()), int64(g.NumVertices()))
	return g, w, stats, nil
}

// scanGR streams a .gr file, invoking onP for the problem line and onA
// for each arc record. "v" records (inline coordinates, this repo's text
// format — standard DIMACS keeps them in a separate .co file) go to onV
// when non-nil and are skipped otherwise. Parsing is manual ([]byte field
// splitting) — at tens of millions of lines, fmt.Sscanf dominates import
// time. Each line is trimmed of surrounding white space, so indented records
// and CRLF line ends parse.
func scanGR(rd io.Reader, onP func(n, m int64) error, onA func(u, v, w, line int64) error, onV func(id int64, x, y float64) error) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20)
	havep := false
	var arcs int64
	for sc.Scan() {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		switch b[0] {
		case 'c':
			continue
		case 'p':
			// "p sp <n> <m>"
			f1, rest := nextField(b[1:])
			if string(f1) != "sp" {
				return fmt.Errorf("graph: problem kind %q, want \"sp\"", f1)
			}
			f2, rest := nextField(rest)
			f3, _ := nextField(rest)
			n, err1 := parseInt(f2)
			m, err2 := parseInt(f3)
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return fmt.Errorf("graph: bad problem line %q", b)
			}
			if havep {
				return fmt.Errorf("graph: duplicate problem line")
			}
			havep = true
			if err := onP(n, m); err != nil {
				return err
			}
		case 'a':
			if !havep {
				return fmt.Errorf("graph: arc before problem line")
			}
			f1, rest := nextField(b[1:])
			f2, rest := nextField(rest)
			f3, _ := nextField(rest)
			u, err1 := parseInt(f1)
			v, err2 := parseInt(f2)
			w, err3 := parseInt(f3)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("graph: bad arc line %q", b)
			}
			arcs++
			if err := onA(u, v, w, arcs); err != nil {
				return err
			}
		case 'v':
			if onV == nil {
				continue
			}
			if !havep {
				return fmt.Errorf("graph: vertex before problem line")
			}
			f1, rest := nextField(b[1:])
			f2, rest := nextField(rest)
			f3, _ := nextField(rest)
			id, err1 := parseInt(f1)
			x, err2 := parseFloat(f2)
			y, err3 := parseFloat(f3)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("graph: bad vertex line %q", b)
			}
			if err := onV(id, x, y); err != nil {
				return err
			}
		default:
			return fmt.Errorf("graph: unknown record %q", b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !havep {
		return fmt.Errorf("graph: missing problem line")
	}
	return nil
}

// scanCO streams a .co coordinate file ("v id x y"), reporting each entry
// with a base-shifted 0-based id. DIMACS coordinates are integers
// (longitude/latitude ×10^6) but float forms are accepted too.
func scanCO(rd io.Reader, base, n int64, onV func(id int64, x, y float64, line int64)) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines int64
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 || b[0] == 'c' || b[0] == 'p' {
			continue
		}
		if b[0] != 'v' {
			return fmt.Errorf("graph: unknown coordinate record %q", b)
		}
		f1, rest := nextField(b[1:])
		f2, rest := nextField(rest)
		f3, _ := nextField(rest)
		id, err := parseInt(f1)
		if err != nil {
			return fmt.Errorf("graph: bad coordinate line %q", b)
		}
		x, err1 := parseFloat(f2)
		y, err2 := parseFloat(f3)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph: bad coordinate line %q", b)
		}
		id -= base
		if id < 0 || id >= n {
			return fmt.Errorf("graph: coordinate vertex id %d out of range", id+base)
		}
		lines++
		onV(id, x, y, lines)
	}
	return sc.Err()
}

// nextField returns the next whitespace-delimited field and the remainder.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	j := i
	for j < len(b) && b[j] != ' ' && b[j] != '\t' && b[j] != '\r' {
		j++
	}
	return b[i:j], b[j:]
}

// parseInt parses a decimal integer (optional leading minus) from b.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty field")
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, fmt.Errorf("bare minus")
		}
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", c)
		}
		v = v*10 + int64(c-'0')
		if v < 0 {
			return 0, fmt.Errorf("overflow")
		}
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseFloat parses a float; the integer fast path covers DIMACS .co files.
func parseFloat(b []byte) (float64, error) {
	if v, err := parseInt(b); err == nil {
		return float64(v), nil
	}
	var f float64
	if _, err := fmt.Sscanf(string(b), "%g", &f); err != nil {
		return 0, err
	}
	return f, nil
}
