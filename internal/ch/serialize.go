package ch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fed"
	"repro/internal/graph"
)

// An index stream holds the index's public decisions and no weight: every
// private partial is one silo's sum of its own base weights along public
// structure, so ReadIndex derives them from the federation's silo weights.
// The stream is identical at every silo. Two layouts, each after a header of
// little-endian words (magic, layout version, vertices, overlay arcs, base
// arcs):
//
//   - customized: one winner per pair group, after their count. Ranks, arcs
//     and the pair groups come from the skeleton, a function of the topology
//     (BuildSkeleton) that is derived, never stored; a shortcut's children are
//     the winners of its two child groups.
//   - witness-built: ranks, one record per shortcut (tail, head, via, both
//     children), then the skip records dynamic updates re-examine. Base arcs
//     are the graph's.
//
// Versions 1 and 2 were the earlier witness and customized layouts, which
// stored every arc and, after the stream, one weight shard per silo.

const (
	indexMagic     = 0x46524f41 // "FROA"
	witnessVersion = 3
	custVersion    = 4
)

// loadChunk caps the capacity the loader reserves ahead of the records it
// has actually read: arrays sized by a header field grow as records arrive,
// so a lying count on a short stream fails with EOF after allocating what
// the stream held, not what it claimed.
const loadChunk = 1 << 14

// binWriter writes little-endian words; bufio.Writer's error is sticky, so
// the closing Flush reports the first failed write.
type binWriter struct {
	w *bufio.Writer
}

func (cw *binWriter) u32(vs ...uint32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], v)
		_, _ = cw.w.Write(b[:]) // sticky: the closing Flush reports it
	}
}

type reader struct {
	r *bufio.Reader
}

func (rd *reader) u32() (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(rd.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteIndex serializes the index's public decisions in its layout.
func (x *Index) WriteIndex(w io.Writer) error {
	cw := &binWriter{w: bufio.NewWriter(w)}
	n, m := len(x.rank), len(x.tail)
	if x.skel != nil {
		cw.u32(indexMagic, custVersion, uint32(n), uint32(m), uint32(x.numBase), uint32(len(x.win)))
		for _, a := range x.win {
			cw.u32(uint32(a))
		}
		return cw.w.Flush()
	}
	cw.u32(indexMagic, witnessVersion, uint32(n), uint32(m), uint32(x.numBase))
	for _, r := range x.rank {
		cw.u32(uint32(r))
	}
	for a := x.numBase; a < m; a++ {
		cw.u32(uint32(x.tail[a]), uint32(x.head[a]), uint32(x.via[a]), uint32(x.childA[a]), uint32(x.childB[a]))
	}
	for _, recs := range x.hs.skips {
		cw.u32(uint32(len(recs)))
		for _, r := range recs {
			cw.u32(uint32(r.u), uint32(r.w), uint32(len(r.witnessArcs)))
			for _, a := range r.witnessArcs {
				cw.u32(uint32(a))
			}
		}
	}
	return cw.w.Flush()
}

// ReadIndex reassembles an index for a federation from a WriteIndex stream:
// with a non-nil sk a customization of that skeleton, whose topology arrays
// it shares as a fresh customization does; otherwise a witness-built index.
// A base arc's partial is f's silo weight of it, a shortcut's the sum of its
// children's.
func ReadIndex(f *fed.Federation, r io.Reader, sk *Skeleton) (*Index, error) {
	rd := &reader{r: bufio.NewReader(r)}
	var hdr [5]uint32
	for i := range hdr {
		v, err := rd.u32()
		if err != nil {
			return nil, fmt.Errorf("ch: index header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != indexMagic {
		return nil, fmt.Errorf("ch: bad magic %#x", hdr[0])
	}
	want := uint32(witnessVersion)
	if sk != nil {
		want = custVersion
	}
	if hdr[1] != want {
		return nil, fmt.Errorf("ch: index layout version %d, this load reads %d (%d witness-built, %d customized)", hdr[1], want, witnessVersion, custVersion)
	}
	g := f.Graph()
	n, m, numBase := int(hdr[2]), int(hdr[3]), int(hdr[4])
	if n != g.NumVertices() {
		return nil, fmt.Errorf("ch: index has %d vertices, federation graph has %d", n, g.NumVertices())
	}
	if numBase != g.NumArcs() || m < numBase {
		return nil, fmt.Errorf("ch: arc counts inconsistent (%d base, %d overlay, graph %d)", numBase, m, g.NumArcs())
	}
	// The builder adds at most one shortcut per (u, via, w) triple, so any
	// genuine index satisfies m ≤ numBase + n³ (uint64 math — n³ may overflow
	// int on 32-bit). The bound is vacuous from n ≈ 1,626 on, so nothing is
	// allocated by m until the records arrive (loadChunk).
	if uint64(m) > uint64(numBase)+uint64(n)*uint64(n)*uint64(n) {
		return nil, fmt.Errorf("ch: implausible overlay arc count %d for %d vertices", m, n)
	}
	x := &Index{
		f:           f,
		numBase:     numBase,
		witnessCap:  DefaultWitnessCap,
		witnessHops: DefaultWitnessHops,
	}
	var err error
	if sk != nil {
		err = x.readCustomized(rd, sk, m)
	} else {
		err = x.readWitness(rd, n, m)
	}
	if err != nil {
		return nil, err
	}
	if err := x.derivePartials(); err != nil {
		return nil, err
	}
	if sk == nil {
		x.upOut = make([][]int32, n)
		x.downIn = make([][]int32, n)
		for a := int32(0); a < int32(m); a++ {
			x.addArcToQueryLists(a)
		}
	}
	x.buildStats = BuildStats{Shortcuts: x.NumShortcuts(), Customized: sk != nil}
	return x, nil
}

// readCustomized attaches the index to sk, which must have been derived from
// the federation's graph, and reads its winner table: one member per pair
// group. It builds none of the witness-update bookkeeping (hierarchyState),
// which only the witness Update and contract read.
func (x *Index) readCustomized(rd *reader, sk *Skeleton, m int) error {
	g := x.f.Graph()
	if len(sk.rank) != g.NumVertices() || len(sk.tail) != m || sk.numBase != x.numBase {
		return fmt.Errorf("ch: skeleton has %d arcs, index has %d", len(sk.tail), m)
	}
	for a := 0; a < sk.numBase; a++ {
		if sk.tail[a] != g.Tail(graph.Arc(a)) || sk.head[a] != g.Head(graph.Arc(a)) {
			return fmt.Errorf("ch: skeleton base arc %d does not match the federation graph", a)
		}
	}
	x.rank, x.tail, x.head, x.via, x.skel = sk.rank, sk.tail, sk.head, sk.via, sk
	// The table is sized by the locally derived plan, never by the stream.
	pl := sk.Plan()
	cnt, err := rd.u32()
	if err != nil {
		return err
	}
	if cnt != uint32(pl.nGrp) {
		return fmt.Errorf("ch: index names %d pair-group winners, the skeleton has %d groups", cnt, pl.nGrp)
	}
	x.win = make([]int32, pl.nGrp)
	for g := range x.win {
		a, err := rd.u32()
		if err != nil {
			return err
		}
		if a >= uint32(m) || pl.groupOf[a] != int32(g) {
			return fmt.Errorf("ch: winner %d of pair group %d is not one of its members", a, g)
		}
		x.win[g] = int32(a)
	}
	return nil
}

// readWitness reads the rank table, the shortcut records and the skip records
// of a witness-built index, growing every array as its records arrive, and
// checks that every shortcut composes its children.
func (x *Index) readWitness(rd *reader, n, m int) error {
	g, numBase := x.f.Graph(), x.numBase
	x.rank = make([]int32, n)
	seenRank := make([]bool, n)
	for v := range x.rank {
		r, err := rd.u32()
		if err != nil {
			return err
		}
		if r >= uint32(n) || seenRank[r] {
			return fmt.Errorf("ch: rank table is not a permutation of [0,%d)", n)
		}
		seenRank[r] = true
		x.rank[v] = int32(r)
	}
	ahead := numBase + min(m-numBase, loadChunk)
	x.tail = make([]graph.Vertex, numBase, ahead)
	x.head = make([]graph.Vertex, numBase, ahead)
	x.via = make([]graph.Vertex, numBase, ahead)
	x.childA = make([]int32, numBase, ahead)
	x.childB = make([]int32, numBase, ahead)
	for a := 0; a < numBase; a++ {
		x.tail[a], x.head[a], x.via[a] = g.Tail(graph.Arc(a)), g.Head(graph.Arc(a)), NoShortcut
		x.childA[a], x.childB[a] = -1, -1
	}
	for a := numBase; a < m; a++ {
		var vals [5]uint32
		for i := range vals {
			v, err := rd.u32()
			if err != nil {
				return err
			}
			vals[i] = v
		}
		// Casting uint32 to the int32-backed Vertex can produce negatives:
		// check both ends of the range before any slice indexing.
		u, w, v := graph.Vertex(vals[0]), graph.Vertex(vals[1]), graph.Vertex(vals[2])
		if int(u) < 0 || int(u) >= n || int(w) < 0 || int(w) >= n || int(v) < 0 || int(v) >= n {
			return fmt.Errorf("ch: shortcut %d endpoints or via vertex out of range", a)
		}
		// Children may carry LARGER arc IDs than their parent: a dynamic
		// update that refreshes an existing shortcut rewires it onto the
		// newest minimum arcs between the same endpoints. Only the range is
		// checkable while streaming; structural checks run once every arc is
		// in memory.
		ca, cb := int32(vals[3]), int32(vals[4])
		if ca < 0 || int(ca) >= m || cb < 0 || int(cb) >= m {
			return fmt.Errorf("ch: shortcut %d has invalid children", a)
		}
		x.tail, x.head, x.via = append(x.tail, u), append(x.head, w), append(x.via, v)
		x.childA, x.childB = append(x.childA, ca), append(x.childB, cb)
	}
	skips := make([][]skipRec, n)
	for v := 0; v < n; v++ {
		cnt, err := rd.u32()
		if err != nil {
			return err
		}
		// One contraction records at most one skip per (u,w) pair.
		if uint64(cnt) > uint64(n)*uint64(n) {
			return fmt.Errorf("ch: implausible skip record count %d for vertex %d", cnt, v)
		}
		recs := make([]skipRec, 0, min(cnt, loadChunk))
		for range cnt {
			u, err := rd.u32()
			if err != nil {
				return err
			}
			wv, err := rd.u32()
			if err != nil {
				return err
			}
			if u >= uint32(n) || wv >= uint32(n) {
				return fmt.Errorf("ch: skip record endpoints out of range for vertex %d", v)
			}
			na, err := rd.u32()
			if err != nil {
				return err
			}
			if na > uint32(m) {
				return fmt.Errorf("ch: skip record with %d witness arcs", na)
			}
			arcs := make([]int32, 0, min(na, loadChunk))
			for range na {
				av, err := rd.u32()
				if err != nil {
					return err
				}
				if av >= uint32(m) {
					return fmt.Errorf("ch: witness arc %d out of range", av)
				}
				arcs = append(arcs, int32(av))
			}
			recs = append(recs, skipRec{u: graph.Vertex(u), w: graph.Vertex(wv), witnessArcs: arcs})
		}
		skips[v] = recs
	}
	for a := numBase; a < m; a++ {
		v, ca, cb := x.via[a], x.childA[a], x.childB[a]
		// A shortcut must actually compose its children around its via
		// vertex, and the via vertex must have been contracted before both
		// endpoints — the invariants every query and dynamic update relies
		// on. They also make the child relation acyclic: a child shortcut's
		// via vertex is an endpoint of the parent's via vertex's arcs, so its
		// rank is strictly below the parent's via rank.
		if x.tail[ca] != x.tail[a] || x.head[cb] != x.head[a] || x.head[ca] != v || x.tail[cb] != v {
			return fmt.Errorf("ch: shortcut %d children do not compose via vertex %d", a, v)
		}
		if x.rank[v] >= x.rank[x.tail[a]] || x.rank[v] >= x.rank[x.head[a]] {
			return fmt.Errorf("ch: shortcut %d via vertex does not rank below its endpoints", a)
		}
	}
	x.indexHierarchy(skips)
	return nil
}

// derivePartials sets every shortcut's per-silo partial from the silos'
// weights — the sum of its children's, a base arc's being its weight — or, on
// a customized index, every pair group's, its winner's.
// Children need not precede their parent in arc order (see readWitness), so
// the child DAG is walked with memoization; the via ranks bound the recursion
// depth by n and rule out cycles. The same walk rejects shortcut trees that
// unpack into longer walks than any simple path admits (a corrupt stream
// could share children Fibonacci-style and make Unpack explode).
func (x *Index) derivePartials() error {
	n, m, nb := len(x.rank), len(x.tail), int32(x.numBase)
	if x.skel != nil {
		x.grpW = make([][]int64, x.f.P())
		for p := range x.grpW {
			x.grpW[p] = make([]int64, len(x.win))
		}
	} else {
		x.scW = make([][]int64, x.f.P())
		for p := range x.scW {
			x.scW[p] = make([]int64, m-x.numBase)
		}
	}
	pathLen := make([]int64, m)
	var walk func(a int32) int64
	walk = func(a int32) int64 {
		if pathLen[a] != 0 {
			return pathLen[a]
		}
		l := int64(1)
		if x.via[a] != NoShortcut {
			ca, cb := x.children(a)
			l = min(walk(ca)+walk(cb), int64(n)+1) // clamped; rejected below
			if x.skel == nil {
				for p, ws := range x.scW {
					ws[a-nb] = x.partial(p, ca) + x.partial(p, cb)
				}
			}
		}
		// A winner is walked after its children, so its child groups'
		// partials are already set.
		if x.skel != nil {
			if g := x.skel.Plan().groupOf[a]; x.win[g] == a {
				for p, gw := range x.grpW {
					gw[g] = x.partial(p, a)
				}
			}
		}
		pathLen[a] = l
		return l
	}
	for a := int32(0); a < int32(m); a++ {
		if walk(a) > int64(n) {
			return fmt.Errorf("ch: shortcut %d unpacks to more than %d arcs", a, n)
		}
	}
	return nil
}
