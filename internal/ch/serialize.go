package ch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fed"
	"repro/internal/graph"
)

// Index serialization splits along the privacy boundary, so a deployment can
// persist and ship the index without moving private data:
//
//   - WritePublic stores the shared structure: ranks, shortcut arcs (tails,
//     heads, via vertices, children) and the witness skip records. This part
//     is identical at every silo — it contains no weights.
//   - WriteSiloWeights stores ONE silo's private partial weight shard; each
//     silo persists only its own.
//   - LoadIndex reassembles an index from the public part plus all shards
//     (the simulation holds all shards in one process; a real deployment
//     would load one per silo).
//
// Both parts are little-endian binary with a magic header and version.
// WriteIndex/ReadIndex are the same two parts back to back in one stream; a
// customized index's skeleton is never among them — it is a function of the
// topology, re-derived by BuildSkeleton and cross-checked on load.

const (
	indexMagic   = 0x46524f41 // "FROA"
	indexVersion = 1
	shardMagic   = 0x46525348 // "FRSH"
)

// loadChunk caps the capacity the loader reserves ahead of the records it
// has actually read: arrays sized by a header field grow as records arrive,
// so a lying count on a short stream fails with EOF after allocating what
// the stream held, not what it claimed.
const loadChunk = 1 << 14

type binWriter struct {
	w *bufio.Writer
}

func (cw *binWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := cw.w.Write(b[:])
	return err
}

func (cw *binWriter) i64(v int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	_, err := cw.w.Write(b[:])
	return err
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

func (rd *reader) i64() (int64, error) {
	var b [8]byte
	if _, err := io.ReadFull(rd.r, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

// WritePublic serializes the weight-free shared structure of the index.
func (x *Index) WritePublic(w io.Writer) error {
	cw := &binWriter{w: bufio.NewWriter(w)}
	n := len(x.rank)
	m := len(x.tail)
	hdr := []uint32{indexMagic, indexVersion, uint32(n), uint32(m), uint32(x.numBase)}
	for _, v := range hdr {
		if err := cw.u32(v); err != nil {
			return err
		}
	}
	for _, r := range x.rank {
		if err := cw.u32(uint32(r)); err != nil {
			return err
		}
	}
	for a := 0; a < m; a++ {
		for _, v := range []uint32{
			uint32(x.tail[a]), uint32(x.head[a]), uint32(int32(x.via[a])),
			uint32(x.childA[a]), uint32(x.childB[a]),
		} {
			if err := cw.u32(v); err != nil {
				return err
			}
		}
	}
	// Skip records (needed to keep dynamic updates working after reload); a
	// customized index prunes nothing and so has none.
	for v := 0; v < n; v++ {
		var recs []skipRec
		if x.hs != nil {
			recs = x.hs.skips[v]
		}
		if err := cw.u32(uint32(len(recs))); err != nil {
			return err
		}
		for _, r := range recs {
			if err := cw.u32(uint32(r.u)); err != nil {
				return err
			}
			if err := cw.u32(uint32(r.w)); err != nil {
				return err
			}
			if err := cw.u32(uint32(len(r.witnessArcs))); err != nil {
				return err
			}
			for _, a := range r.witnessArcs {
				if err := cw.u32(uint32(a)); err != nil {
					return err
				}
			}
		}
	}
	return cw.w.Flush()
}

// WriteSiloWeights serializes silo p's private partial weight shard.
func (x *Index) WriteSiloWeights(p int, w io.Writer) error {
	if p < 0 || p >= len(x.siloW) {
		return fmt.Errorf("ch: silo %d out of range", p)
	}
	cw := &binWriter{w: bufio.NewWriter(w)}
	for _, v := range []uint32{shardMagic, indexVersion, uint32(p), uint32(len(x.siloW[p]))} {
		if err := cw.u32(v); err != nil {
			return err
		}
	}
	for _, wt := range x.siloW[p] {
		if err := cw.i64(wt); err != nil {
			return err
		}
	}
	return cw.w.Flush()
}

// LoadIndex reassembles an index for a federation from its public structure
// and one weight shard per silo (shards[p] must be silo p's).
func LoadIndex(f *fed.Federation, public io.Reader, shards []io.Reader) (*Index, error) {
	return loadIndex(f, public, shards, false)
}

// loadIndex is LoadIndex; customized says the caller will attach a skeleton,
// so the witness-update bookkeeping (hierarchyState: only the witness Update
// and contract read it) is not built.
func loadIndex(f *fed.Federation, public io.Reader, shards []io.Reader, customized bool) (*Index, error) {
	if len(shards) != f.P() {
		return nil, fmt.Errorf("ch: %d shards for %d silos", len(shards), f.P())
	}
	rd := &reader{r: bufio.NewReader(public)}
	var hdr [5]uint32
	for i := range hdr {
		v, err := rd.u32()
		if err != nil {
			return nil, fmt.Errorf("ch: public header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != indexMagic {
		return nil, fmt.Errorf("ch: bad magic %#x", hdr[0])
	}
	if hdr[1] != indexVersion {
		return nil, fmt.Errorf("ch: unsupported version %d", hdr[1])
	}
	n, m, numBase := int(hdr[2]), int(hdr[3]), int(hdr[4])
	if n != f.Graph().NumVertices() {
		return nil, fmt.Errorf("ch: index has %d vertices, federation graph has %d", n, f.Graph().NumVertices())
	}
	if numBase != f.Graph().NumArcs() || m < numBase {
		return nil, fmt.Errorf("ch: arc counts inconsistent (%d base, %d overlay, graph %d)", numBase, m, f.Graph().NumArcs())
	}
	// The builder adds at most one shortcut per (u, via, w) triple, so any
	// genuine index satisfies m ≤ numBase + n³ (uint64 math — n³ may overflow
	// int on 32-bit). The bound is vacuous from n ≈ 1,626 on, so nothing is
	// allocated by m until the arcs arrive (loadChunk).
	if uint64(m) > uint64(numBase)+uint64(n)*uint64(n)*uint64(n) {
		return nil, fmt.Errorf("ch: implausible overlay arc count %d for %d vertices", m, n)
	}
	ahead := min(m, loadChunk)
	x := &Index{
		f:           f,
		rank:        make([]int32, n),
		tail:        make([]graph.Vertex, 0, ahead),
		head:        make([]graph.Vertex, 0, ahead),
		via:         make([]graph.Vertex, 0, ahead),
		childA:      make([]int32, 0, ahead),
		childB:      make([]int32, 0, ahead),
		numBase:     numBase,
		witnessCap:  DefaultWitnessCap,
		witnessHops: DefaultWitnessHops,
	}
	seenRank := make([]bool, n)
	for v := 0; v < n; v++ {
		r, err := rd.u32()
		if err != nil {
			return nil, err
		}
		if r >= uint32(n) || seenRank[r] {
			return nil, fmt.Errorf("ch: rank table is not a permutation of [0,%d)", n)
		}
		seenRank[r] = true
		x.rank[v] = int32(r)
	}
	for a := 0; a < m; a++ {
		var vals [5]uint32
		for i := range vals {
			v, err := rd.u32()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		x.tail = append(x.tail, graph.Vertex(vals[0]))
		x.head = append(x.head, graph.Vertex(vals[1]))
		x.via = append(x.via, graph.Vertex(int32(vals[2])))
		x.childA = append(x.childA, int32(vals[3]))
		x.childB = append(x.childB, int32(vals[4]))
		// Casting uint32 to the int32-backed Vertex can produce negatives:
		// check both ends of the range before any slice indexing.
		if int(x.tail[a]) < 0 || int(x.tail[a]) >= n || int(x.head[a]) < 0 || int(x.head[a]) >= n {
			return nil, fmt.Errorf("ch: arc %d endpoints out of range", a)
		}
		if a < numBase {
			if x.via[a] != NoShortcut {
				return nil, fmt.Errorf("ch: base arc %d marked as shortcut", a)
			}
			if x.tail[a] != f.Graph().Tail(graph.Arc(a)) || x.head[a] != f.Graph().Head(graph.Arc(a)) {
				return nil, fmt.Errorf("ch: base arc %d does not match the federation graph", a)
			}
		} else if x.via[a] == NoShortcut {
			return nil, fmt.Errorf("ch: overlay arc %d beyond the base range is not a shortcut", a)
		}
		if x.via[a] != NoShortcut {
			v := x.via[a]
			if int(v) < 0 || int(v) >= n {
				return nil, fmt.Errorf("ch: shortcut %d via vertex out of range", a)
			}
			ca, cb := x.childA[a], x.childB[a]
			// Children may carry LARGER arc IDs than their parent: a dynamic
			// update that refreshes an existing shortcut rewires it onto the
			// newest minimum arcs between the same endpoints. Only the range
			// is checkable while streaming; structural checks run below, once
			// every arc is in memory.
			if ca < 0 || int(ca) >= m || cb < 0 || int(cb) >= m {
				return nil, fmt.Errorf("ch: shortcut %d has invalid children", a)
			}
		}
	}
	for a := 0; a < m; a++ {
		if x.via[a] == NoShortcut {
			continue
		}
		v := x.via[a]
		ca, cb := x.childA[a], x.childB[a]
		// A shortcut must actually compose its children around its via
		// vertex, and the via vertex must have been contracted before
		// both endpoints — the invariants every query and dynamic update
		// relies on. They also make the child relation acyclic: a child
		// shortcut's via vertex is an endpoint of the parent's via vertex's
		// arcs, so its rank is strictly below the parent's via rank.
		if x.tail[ca] != x.tail[a] || x.head[cb] != x.head[a] ||
			x.head[ca] != v || x.tail[cb] != v {
			return nil, fmt.Errorf("ch: shortcut %d children do not compose via vertex %d", a, v)
		}
		if x.rank[v] >= x.rank[x.tail[a]] || x.rank[v] >= x.rank[x.head[a]] {
			return nil, fmt.Errorf("ch: shortcut %d via vertex does not rank below its endpoints", a)
		}
	}
	// Reject shortcut trees that unpack into longer walks than any simple
	// path admits (a corrupt file could share children Fibonacci-style and
	// make Unpack explode exponentially). Children do not necessarily precede
	// parents in arc order (see above), so walk the child DAG with
	// memoization; the via-rank check just validated bounds the recursion
	// depth by n, and rules out cycles.
	pathLen := make([]int64, m)
	var unpackLen func(a int32) int64
	unpackLen = func(a int32) int64 {
		if pathLen[a] != 0 {
			return pathLen[a]
		}
		if x.via[a] == NoShortcut {
			pathLen[a] = 1
			return 1
		}
		l := unpackLen(x.childA[a]) + unpackLen(x.childB[a])
		if l > int64(n) {
			l = int64(n) + 1 // clamp; rejected below
		}
		pathLen[a] = l
		return l
	}
	for a := int32(0); a < int32(m); a++ {
		if unpackLen(a) > int64(n) {
			return nil, fmt.Errorf("ch: shortcut %d unpacks to more than %d arcs", a, n)
		}
	}
	skips := make([][]skipRec, n)
	for v := 0; v < n; v++ {
		cnt, err := rd.u32()
		if err != nil {
			return nil, err
		}
		// One contraction records at most one skip per (u,w) pair.
		if uint64(cnt) > uint64(n)*uint64(n) {
			return nil, fmt.Errorf("ch: implausible skip record count %d for vertex %d", cnt, v)
		}
		recs := make([]skipRec, 0, min(cnt, loadChunk))
		for range cnt {
			u, err := rd.u32()
			if err != nil {
				return nil, err
			}
			wv, err := rd.u32()
			if err != nil {
				return nil, err
			}
			if u >= uint32(n) || wv >= uint32(n) {
				return nil, fmt.Errorf("ch: skip record endpoints out of range for vertex %d", v)
			}
			na, err := rd.u32()
			if err != nil {
				return nil, err
			}
			if na > uint32(m) {
				return nil, fmt.Errorf("ch: skip record with %d witness arcs", na)
			}
			arcs := make([]int32, 0, min(na, loadChunk))
			for range na {
				av, err := rd.u32()
				if err != nil {
					return nil, err
				}
				if av >= uint32(m) {
					return nil, fmt.Errorf("ch: witness arc %d out of range", av)
				}
				arcs = append(arcs, int32(av))
			}
			recs = append(recs, skipRec{u: graph.Vertex(u), w: graph.Vertex(wv), witnessArcs: arcs})
		}
		skips[v] = recs
	}
	if !customized {
		x.indexHierarchy(skips)
	}

	// Shards.
	x.siloW = make([][]int64, f.P())
	for p := 0; p < f.P(); p++ {
		srd := &reader{r: bufio.NewReader(shards[p])}
		var shdr [4]uint32
		for i := range shdr {
			v, err := srd.u32()
			if err != nil {
				return nil, fmt.Errorf("ch: shard %d header: %w", p, err)
			}
			shdr[i] = v
		}
		if shdr[0] != shardMagic || shdr[1] != indexVersion {
			return nil, fmt.Errorf("ch: shard %d bad magic/version", p)
		}
		if int(shdr[2]) != p {
			return nil, fmt.Errorf("ch: shard for silo %d supplied at position %d", shdr[2], p)
		}
		if int(shdr[3]) != m {
			return nil, fmt.Errorf("ch: shard %d covers %d arcs, index has %d", p, shdr[3], m)
		}
		ws := make([]int64, m)
		for a := range ws {
			v, err := srd.i64()
			if err != nil {
				return nil, err
			}
			// Silo weights are strictly positive (fed.Silo.SetWeight enforces
			// it) and shortcut partials are sums of them; a non-positive
			// entry means corruption and would break every search invariant.
			if v <= 0 {
				return nil, fmt.Errorf("ch: shard %d has non-positive weight for arc %d", p, a)
			}
			ws[a] = v
		}
		x.siloW[p] = ws
	}

	x.upOut = make([][]int32, n)
	x.downIn = make([][]int32, n)
	for a := int32(0); a < int32(m); a++ {
		x.addArcToQueryLists(a)
	}
	x.buildStats = BuildStats{Shortcuts: x.NumShortcuts()}
	return x, nil
}

// WriteIndex serializes the complete index as one stream: WritePublic, then
// WriteSiloWeights of every silo in order — exactly the bytes a deployment
// persists along the privacy boundary, back to back. This is the
// single-process serving-tier form (the FRST state snapshot embeds it): the
// simulation holds all shards anyway.
func (x *Index) WriteIndex(w io.Writer) error {
	if err := x.WritePublic(w); err != nil {
		return err
	}
	for p := range x.siloW {
		if err := x.WriteSiloWeights(p, w); err != nil {
			return err
		}
	}
	return nil
}

// ReadIndex reassembles an index from a WriteIndex stream with exactly
// LoadIndex's validation: the public part and every shard are read from one
// shared buffered reader (bufio.NewReader returns it unchanged). A non-nil
// sk marks the stream as a customization of that skeleton; the loaded arcs
// must then mirror it arc for arc.
func ReadIndex(f *fed.Federation, r io.Reader, sk *Skeleton) (*Index, error) {
	br := bufio.NewReader(r)
	shards := make([]io.Reader, f.P())
	for p := range shards {
		shards[p] = br
	}
	x, err := loadIndex(f, br, shards, sk != nil)
	if err != nil || sk == nil {
		return x, err
	}
	if err := attachSkeleton(x, sk); err != nil {
		return nil, err
	}
	return x, nil
}

// attachSkeleton cross-validates a skeleton against an index loaded from a
// stream — a customized index must mirror its skeleton's topology arc for arc
// — and marks the index customized over it. The index then shares the
// skeleton's topology arrays, as a fresh customization does.
func attachSkeleton(x *Index, sk *Skeleton) error {
	if len(sk.tail) != len(x.tail) || sk.numBase != x.numBase {
		return fmt.Errorf("ch: skeleton has %d arcs, index has %d", len(sk.tail), len(x.tail))
	}
	for v := range sk.rank {
		if sk.rank[v] != x.rank[v] {
			return fmt.Errorf("ch: skeleton rank of vertex %d disagrees with the index", v)
		}
	}
	for a := range sk.tail {
		if sk.tail[a] != x.tail[a] || sk.head[a] != x.head[a] || sk.via[a] != x.via[a] {
			return fmt.Errorf("ch: skeleton arc %d disagrees with the index", a)
		}
	}
	x.rank, x.tail, x.head, x.via = sk.rank, sk.tail, sk.head, sk.via
	x.skel = sk
	x.buildStats.Customized = true
	return nil
}
