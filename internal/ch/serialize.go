package ch

import (
	"bufio"
	"bytes"
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
// The format is little-endian binary with a magic header and version.

const (
	indexMagic   = 0x46524f41 // "FROA"
	indexVersion = 1
	shardMagic   = 0x46525348 // "FRSH"
	bundleMagic  = 0x46524958 // "FRIX" — WriteIndex/ReadIndex single-stream bundle
	// Bundle v2 appends an optional skeleton section (FRSK) after the weight
	// shards, so a restart of a customized index re-customizes instead of
	// re-contracting. v1 bundles (no skeleton) still load.
	bundleVersion = 2
)

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
	// genuine index satisfies m ≤ numBase + n³. A corrupt header can claim up
	// to 2³²−1 arcs; reject before allocating by it (uint64 math — n³ may
	// overflow int on 32-bit).
	if uint64(m) > uint64(numBase)+uint64(n)*uint64(n)*uint64(n) {
		return nil, fmt.Errorf("ch: implausible overlay arc count %d for %d vertices", m, n)
	}
	x := &Index{
		f:           f,
		rank:        make([]int32, n),
		tail:        make([]graph.Vertex, m),
		head:        make([]graph.Vertex, m),
		via:         make([]graph.Vertex, m),
		childA:      make([]int32, m),
		childB:      make([]int32, m),
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
		vals := make([]uint32, 5)
		for i := range vals {
			v, err := rd.u32()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		x.tail[a] = graph.Vertex(vals[0])
		x.head[a] = graph.Vertex(vals[1])
		x.via[a] = graph.Vertex(int32(vals[2]))
		x.childA[a] = int32(vals[3])
		x.childB[a] = int32(vals[4])
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
		recs := make([]skipRec, cnt)
		for i := range recs {
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
			arcs := make([]int32, na)
			for j := range arcs {
				av, err := rd.u32()
				if err != nil {
					return nil, err
				}
				if av >= uint32(m) {
					return nil, fmt.Errorf("ch: witness arc %d out of range", av)
				}
				arcs[j] = int32(av)
			}
			recs[i] = skipRec{u: graph.Vertex(u), w: graph.Vertex(wv), witnessArcs: arcs}
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

// maxBundleSection bounds one section of a WriteIndex bundle on the read
// path, so a corrupt length prefix cannot demand a pathological allocation
// before LoadIndex's own validation ever runs.
const maxBundleSection = 1 << 31

// WriteIndex serializes the complete index — the public structure plus every
// silo's private weight shard — as one versioned stream of length-prefixed
// sections. This is the single-process serving-tier format (fedserver
// -persist): the simulation holds all shards anyway, and bundling them lets
// a restart restore the index with one file read instead of an MPC rebuild.
// A real multi-silo deployment persists along the privacy boundary with
// WritePublic/WriteSiloWeights instead.
func (x *Index) WriteIndex(w io.Writer) error {
	cw := &binWriter{w: bufio.NewWriter(w)}
	for _, v := range []uint32{bundleMagic, bundleVersion, uint32(len(x.siloW))} {
		if err := cw.u32(v); err != nil {
			return err
		}
	}
	section := func(write func(io.Writer) error) error {
		// Sections are buffered once to learn their length; the public part
		// and each shard are a fraction of the in-memory index, so the peak
		// is bounded by the largest single section, not the bundle.
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		if err := cw.i64(int64(buf.Len())); err != nil {
			return err
		}
		_, err := cw.w.Write(buf.Bytes())
		return err
	}
	if err := section(x.WritePublic); err != nil {
		return err
	}
	for p := range x.siloW {
		p := p
		if err := section(func(w io.Writer) error { return x.WriteSiloWeights(p, w) }); err != nil {
			return err
		}
	}
	hasSkel := uint32(0)
	if x.skel != nil {
		hasSkel = 1
	}
	if err := cw.u32(hasSkel); err != nil {
		return err
	}
	if x.skel != nil {
		if err := section(x.skel.Write); err != nil {
			return err
		}
	}
	return cw.w.Flush()
}

// ReadIndex reassembles an index from a WriteIndex bundle. All structural
// validation — rank permutation, shortcut composition, path-length bounds,
// shard weight positivity — is exactly LoadIndex's: the bundle framing only
// splits the stream back into the public part and the per-silo shards.
func ReadIndex(f *fed.Federation, r io.Reader) (*Index, error) {
	rd := &reader{r: bufio.NewReader(r)}
	var hdr [3]uint32
	for i := range hdr {
		v, err := rd.u32()
		if err != nil {
			return nil, fmt.Errorf("ch: bundle header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != bundleMagic {
		return nil, fmt.Errorf("ch: bundle bad magic %#x", hdr[0])
	}
	if hdr[1] != 1 && hdr[1] != bundleVersion {
		return nil, fmt.Errorf("ch: bundle unsupported version %d", hdr[1])
	}
	if int(hdr[2]) != f.P() {
		return nil, fmt.Errorf("ch: bundle carries %d shards, federation has %d silos", hdr[2], f.P())
	}
	section := func() (*bytes.Reader, error) {
		n, err := rd.i64()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > maxBundleSection {
			return nil, fmt.Errorf("ch: implausible bundle section length %d", n)
		}
		// ReadAll grows with the bytes that actually arrive, so a lying
		// length on a truncated stream errors instead of allocating n.
		data, err := io.ReadAll(io.LimitReader(rd.r, n))
		if err != nil {
			return nil, err
		}
		if int64(len(data)) != n {
			return nil, fmt.Errorf("ch: bundle section truncated (%d of %d bytes)", len(data), n)
		}
		return bytes.NewReader(data), nil
	}
	public, err := section()
	if err != nil {
		return nil, fmt.Errorf("ch: bundle public section: %w", err)
	}
	shards := make([]io.Reader, f.P())
	for p := range shards {
		sr, err := section()
		if err != nil {
			return nil, fmt.Errorf("ch: bundle shard %d: %w", p, err)
		}
		shards[p] = sr
	}
	// The skeleton trails the shards; read it first so the index is loaded
	// knowing whether it is a customized one.
	var sk *Skeleton
	if hdr[1] >= bundleVersion {
		hasSkel, err := rd.u32()
		if err != nil {
			return nil, fmt.Errorf("ch: bundle skeleton flag: %w", err)
		}
		if hasSkel > 1 {
			return nil, fmt.Errorf("ch: bundle skeleton flag %d invalid", hasSkel)
		}
		if hasSkel == 1 {
			sr, err := section()
			if err != nil {
				return nil, fmt.Errorf("ch: bundle skeleton section: %w", err)
			}
			if sk, err = ReadSkeleton(f.Graph(), sr); err != nil {
				return nil, err
			}
		}
	}
	x, err := loadIndex(f, public, shards, sk != nil)
	if err != nil || sk == nil {
		return x, err
	}
	if err := attachSkeleton(x, sk); err != nil {
		return nil, err
	}
	return x, nil
}

// attachSkeleton cross-validates a bundled skeleton against the index loaded
// from the same bundle — a customized index must mirror its skeleton's
// topology arc for arc — and marks the index customized.
func attachSkeleton(x *Index, sk *Skeleton) error {
	if len(sk.tail) != len(x.tail) || sk.numBase != x.numBase {
		return fmt.Errorf("ch: bundle skeleton has %d arcs, index has %d", len(sk.tail), len(x.tail))
	}
	for v := range sk.rank {
		if sk.rank[v] != x.rank[v] {
			return fmt.Errorf("ch: bundle skeleton rank of vertex %d disagrees with the index", v)
		}
	}
	for a := range sk.tail {
		if sk.tail[a] != x.tail[a] || sk.head[a] != x.head[a] || sk.via[a] != x.via[a] {
			return fmt.Errorf("ch: bundle skeleton arc %d disagrees with the index", a)
		}
	}
	x.skel = sk
	x.buildStats.Customized = true
	return nil
}
