package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary graph snapshot ("FRGB"): a versioned little-endian serialization of
// the CSR arrays, written contiguously and 8-byte aligned so a loader may
// mmap the file and use the sections in place. Layout:
//
//	offset  size      field
//	0       8         magic "FEDROADG"
//	8       4         version (uint32, currently 1)
//	12      4         flags (uint32: bit 0 = weights, bit 1 = coordinates)
//	16      8         numVertices (uint64)
//	24      8         numArcs (uint64)
//	32      4(n+1)    off    — CSR out-adjacency offsets (int32)
//	        pad to 8
//	        4m        dst    — arc heads in arc-ID order (int32)
//	        pad to 8
//	        8m        w      — arc weights (int64), if flag bit 0
//	        8n        x      — coordinates (float64), if flag bit 1
//	        8n        y
//
// Tails and the reverse adjacency are derived from off/dst on load, so the
// file stores each arc once. The text format (WriteTo/ReadFrom) remains the
// human-readable interchange; this is the load path for continent-scale
// networks, where parsing tens of millions of text records dominates
// startup time.
const (
	binaryMagic   = "FEDROADG"
	binaryVersion = 1

	flagWeights = 1 << 0
	flagCoords  = 1 << 1
)

// binaryChunk is the scratch-buffer size used to stream array sections.
const binaryChunk = 1 << 18

// WriteBinary serializes the graph and an optional weight set as a binary
// snapshot readable by ReadBinary.
func WriteBinary(wr io.Writer, g *Graph, w Weights) error {
	if w != nil && len(w) != g.NumArcs() {
		return fmt.Errorf("graph: weight set has %d entries, graph has %d arcs", len(w), g.NumArcs())
	}
	bw := bufio.NewWriterSize(wr, binaryChunk)
	var flags uint32
	if w != nil {
		flags |= flagWeights
	}
	if g.HasCoordinates() {
		flags |= flagCoords
	}
	var hdr [32]byte
	copy(hdr[:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(g.NumArcs()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	written := int64(len(hdr))
	pad := func() error {
		for written%8 != 0 {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			written++
		}
		return nil
	}
	buf := make([]byte, binaryChunk)
	put32 := func(vals []int32) error {
		for len(vals) > 0 {
			k := len(buf) / 4
			if k > len(vals) {
				k = len(vals)
			}
			for i := 0; i < k; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(vals[i]))
			}
			if _, err := bw.Write(buf[:k*4]); err != nil {
				return err
			}
			written += int64(k * 4)
			vals = vals[k:]
		}
		return nil
	}
	put64 := func(vals []uint64) error {
		for len(vals) > 0 {
			k := len(buf) / 8
			if k > len(vals) {
				k = len(vals)
			}
			for i := 0; i < k; i++ {
				binary.LittleEndian.PutUint64(buf[i*8:], vals[i])
			}
			if _, err := bw.Write(buf[:k*8]); err != nil {
				return err
			}
			written += int64(k * 8)
			vals = vals[k:]
		}
		return nil
	}
	if err := put32(g.off); err != nil {
		return err
	}
	if err := pad(); err != nil {
		return err
	}
	// g.dst is []Vertex (int32 underlying); reinterpret element-wise.
	if err := put32VertexSlice(put32, g.dst); err != nil {
		return err
	}
	if err := pad(); err != nil {
		return err
	}
	if w != nil {
		vals := make([]uint64, 0, binaryChunk/8)
		for i := 0; i < len(w); {
			vals = vals[:0]
			for ; i < len(w) && len(vals) < cap(vals); i++ {
				vals = append(vals, uint64(w[i]))
			}
			if err := put64(vals); err != nil {
				return err
			}
		}
	}
	if g.HasCoordinates() {
		for _, coords := range [][]float64{g.x, g.y} {
			vals := make([]uint64, 0, binaryChunk/8)
			for i := 0; i < len(coords); {
				vals = vals[:0]
				for ; i < len(coords) && len(vals) < cap(vals); i++ {
					vals = append(vals, math.Float64bits(coords[i]))
				}
				if err := put64(vals); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func put32VertexSlice(put32 func([]int32) error, vs []Vertex) error {
	// Convert in bounded chunks to avoid a full-size copy.
	buf := make([]int32, 0, binaryChunk/4)
	for i := 0; i < len(vs); {
		buf = buf[:0]
		for ; i < len(vs) && len(buf) < cap(buf); i++ {
			buf = append(buf, int32(vs[i]))
		}
		if err := put32(buf); err != nil {
			return err
		}
	}
	return nil
}

// IsBinarySnapshot reports whether the byte prefix identifies a binary
// graph snapshot (at least 8 bytes of the magic are required).
func IsBinarySnapshot(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic
}

// ReadBinary parses a snapshot written by WriteBinary, validating the
// header and the structural invariants of the CSR arrays (monotone offsets
// covering exactly the declared arc count, heads in range). The returned
// weight set is nil when the snapshot carries none. Corrupt or truncated
// input yields an error, never a panic or a structurally invalid graph.
func ReadBinary(rd io.Reader) (*Graph, Weights, error) {
	br := bufio.NewReaderSize(rd, binaryChunk)
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: binary snapshot header: %w", err)
	}
	if string(hdr[:8]) != binaryMagic {
		return nil, nil, fmt.Errorf("graph: not a binary graph snapshot (bad magic)")
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != binaryVersion {
		return nil, nil, fmt.Errorf("graph: unsupported snapshot version %d (want %d)", version, binaryVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^uint32(flagWeights|flagCoords) != 0 {
		return nil, nil, fmt.Errorf("graph: unknown snapshot flags %#x", flags)
	}
	n64 := binary.LittleEndian.Uint64(hdr[16:24])
	m64 := binary.LittleEndian.Uint64(hdr[24:32])
	// Same plausibility bounds as the text parser (comfortably above the
	// USA DIMACS network); they also keep a forged header from triggering
	// a multi-GiB allocation before the first read fails.
	if n64 > 1<<28 || m64 > 1<<30 {
		return nil, nil, fmt.Errorf("graph: implausible snapshot dimensions n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)

	read := int64(len(hdr))
	buf := make([]byte, binaryChunk)
	get32 := func(out []int32) error {
		for len(out) > 0 {
			k := len(buf) / 4
			if k > len(out) {
				k = len(out)
			}
			if _, err := io.ReadFull(br, buf[:k*4]); err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
			}
			read += int64(k * 4)
			out = out[k:]
		}
		return nil
	}
	// get64 decodes a little-endian uint64 section directly into exactly one
	// of an int64 or float64 destination, chunk by chunk without staging.
	get64 := func(ints []int64, floats []float64) error {
		total := len(ints) + len(floats)
		for at := 0; at < total; {
			k := len(buf) / 8
			if k > total-at {
				k = total - at
			}
			if _, err := io.ReadFull(br, buf[:k*8]); err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				v := binary.LittleEndian.Uint64(buf[i*8:])
				if ints != nil {
					ints[at+i] = int64(v)
				} else {
					floats[at+i] = math.Float64frombits(v)
				}
			}
			read += int64(k * 8)
			at += k
		}
		return nil
	}
	skipPad := func() error {
		for read%8 != 0 {
			if _, err := br.ReadByte(); err != nil {
				return err
			}
			read++
		}
		return nil
	}

	off := make([]int32, n+1)
	if err := get32(off); err != nil {
		return nil, nil, fmt.Errorf("graph: snapshot offsets: %w", err)
	}
	if err := skipPad(); err != nil {
		return nil, nil, fmt.Errorf("graph: snapshot offsets: %w", err)
	}
	if off[0] != 0 || int(off[n]) != m {
		return nil, nil, fmt.Errorf("graph: snapshot offsets do not cover %d arcs", m)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, nil, fmt.Errorf("graph: snapshot offsets not monotone at vertex %d", v)
		}
	}

	// Decode heads chunk-by-chunk straight into the final array, validating
	// inline — no staging copy.
	dst := make([]Vertex, m)
	for a := 0; a < m; {
		k := len(buf) / 4
		if k > m-a {
			k = m - a
		}
		if _, err := io.ReadFull(br, buf[:k*4]); err != nil {
			return nil, nil, fmt.Errorf("graph: snapshot heads: %w", err)
		}
		for i := 0; i < k; i++ {
			h := int32(binary.LittleEndian.Uint32(buf[i*4:]))
			if h < 0 || int(h) >= n {
				return nil, nil, fmt.Errorf("graph: snapshot arc %d head %d out of range [0,%d)", a+i, h, n)
			}
			dst[a+i] = Vertex(h)
		}
		read += int64(k * 4)
		a += k
	}
	if err := skipPad(); err != nil {
		return nil, nil, fmt.Errorf("graph: snapshot heads: %w", err)
	}
	var w Weights
	if flags&flagWeights != 0 {
		w = make(Weights, m)
		if err := get64(w, nil); err != nil {
			return nil, nil, fmt.Errorf("graph: snapshot weights: %w", err)
		}
	}
	var xs, ys []float64
	if flags&flagCoords != 0 {
		xs = make([]float64, n)
		ys = make([]float64, n)
		if err := get64(nil, xs); err != nil {
			return nil, nil, fmt.Errorf("graph: snapshot coordinates: %w", err)
		}
		if err := get64(nil, ys); err != nil {
			return nil, nil, fmt.Errorf("graph: snapshot coordinates: %w", err)
		}
	}

	tail := make([]Vertex, m)
	for v := 0; v < n; v++ {
		for i := off[v]; i < off[v+1]; i++ {
			tail[i] = Vertex(v)
		}
	}
	g := &Graph{numV: n, off: off, dst: dst, tail: tail, x: xs, y: ys}
	g.buildReverse()
	return g, w, nil
}

// LoadFile loads a road network from path, auto-detecting the binary
// snapshot format (WriteBinary) versus the DIMACS-like text format
// (WriteTo) by sniffing the magic bytes.
func LoadFile(path string) (*Graph, Weights, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, binaryChunk)
	prefix, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if IsBinarySnapshot(prefix) {
		return ReadBinary(br)
	}
	return ReadFrom(br)
}

// UnitIfMissing is the fallback for a file without a weight section: it
// returns w unchanged, or, when w is nil, a travel time of 1 on every arc and
// true, so the caller can say that the weights are fabricated.
func UnitIfMissing(g *Graph, w Weights) (Weights, bool) {
	if w != nil {
		return w, false
	}
	w = make(Weights, g.NumArcs())
	for a := range w {
		w[a] = 1
	}
	return w, true
}
