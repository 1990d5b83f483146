package fedroad

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ch"
)

// Federation state snapshots are the serving tier's restart path: a crash or
// redeploy costs one file read instead of a multi-minute MPC index rebuild.
// SaveState captures everything mutable — every silo's private weight set,
// the traffic version, and the shortcut index if built — against the
// immutable topology, which is NOT stored: the restoring process loads the
// same graph by its usual means, and a fingerprint check rejects snapshots
// taken against a different network. This is a single-process (simulation /
// fedserver) format; a real deployment persists along the privacy boundary,
// one ch.WriteSiloWeights shard per silo next to the shared ch.WritePublic
// part — the very bytes the snapshot writes in sequence.
//
// Format (little-endian): magic, version, topology fingerprint, traffic
// version, silo count, arc count, P×m silo weights, an index-kind byte
// (indexNone, indexWitness, indexCustomized), then — unless none — the
// ch.WriteIndex stream. A customized index's skeleton is not in it: the
// skeleton is a function of the topology, so RestoreState re-derives it (or
// reuses the federation's) and cross-checks it arc for arc.

const (
	stateMagic   = 0x46525354 // "FRST"
	stateVersion = 2          // 1 embedded the FRIX bundle, whose v2 stored the skeleton
)

// Index kinds of a state snapshot.
const (
	indexNone byte = iota
	indexWitness
	indexCustomized
)

// ErrStateVersion tags a snapshot written in a format this build does not
// read (version 1 snapshots predate the skeleton-free layout): the snapshot
// must be discarded, and the federation rebuilt from its graph.
var ErrStateVersion = errors.New("fedroad: unsupported state version")

// fingerprint hashes the topology and static weights (FNV-1a), so a restore
// against the wrong graph fails fast instead of producing garbage routes.
func (f *Federation) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	g := f.inner.Graph()
	w0 := f.inner.StaticWeights()
	mix(uint64(g.NumVertices()))
	mix(uint64(g.NumArcs()))
	for a := 0; a < g.NumArcs(); a++ {
		mix(uint64(g.Tail(Arc(a))))
		mix(uint64(g.Head(Arc(a))))
		mix(uint64(w0[a]))
	}
	return h
}

// SaveState writes a consistent snapshot of the federation's mutable state —
// silo weights, traffic version, and the shortcut index when built — taken
// under the read lock, so it never interleaves with a traffic update.
func (f *Federation) SaveState(w io.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var b [8]byte
	u32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b[:4], v)
		_, err := bw.Write(b[:4])
		return err
	}
	u64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	m := f.inner.Graph().NumArcs()
	for _, v := range []uint32{stateMagic, stateVersion} {
		if err := u32(v); err != nil {
			return err
		}
	}
	if err := u64(f.fingerprint()); err != nil {
		return err
	}
	if err := u64(f.trafficVer); err != nil {
		return err
	}
	if err := u32(uint32(f.Silos())); err != nil {
		return err
	}
	if err := u32(uint32(m)); err != nil {
		return err
	}
	for p := 0; p < f.Silos(); p++ {
		ws := f.inner.Silo(p).Weights()
		for a := 0; a < m; a++ {
			if err := u64(uint64(ws[a])); err != nil {
				return err
			}
		}
	}
	kind := indexNone
	switch {
	case f.index == nil:
	case f.index.Customized():
		kind = indexCustomized
	default:
		kind = indexWitness
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if f.index != nil {
		return f.index.WriteIndex(w)
	}
	return nil
}

// RestoreState loads a SaveState snapshot into the federation: silo weights,
// the shortcut index (validated exactly as ch.LoadIndex validates it), and
// finally the snapshot's traffic version. A customized index is attached to
// the federation's skeleton when it has one (its customization plan
// survives); otherwise the skeleton is derived off-lock and installed with
// the index. Everything is validated before anything is applied; on error
// the federation is unchanged. Intended for startup (fedserver -persist) — it
// invalidates the weight snapshot of any index build racing it only when the
// restored traffic version differs from the current one. It returns whether
// the snapshot carried an index.
func (f *Federation) RestoreState(r io.Reader) (restoredIndex bool, err error) {
	br := bufio.NewReader(r)
	var b [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	magic, err := u32()
	if err != nil {
		return false, fmt.Errorf("fedroad: state header: %w", err)
	}
	if magic != stateMagic {
		return false, fmt.Errorf("fedroad: bad state magic %#x", magic)
	}
	ver, err := u32()
	if err != nil {
		return false, err
	}
	if ver != stateVersion {
		return false, fmt.Errorf("%w %d (this build reads %d)", ErrStateVersion, ver, stateVersion)
	}
	fp, err := u64()
	if err != nil {
		return false, err
	}
	if want := f.fingerprint(); fp != want {
		return false, fmt.Errorf("fedroad: state snapshot fingerprint %#x does not match the loaded network (%#x) — was it taken against a different graph?", fp, want)
	}
	trafficVer, err := u64()
	if err != nil {
		return false, err
	}
	p32, err := u32()
	if err != nil {
		return false, err
	}
	if int(p32) != f.Silos() {
		return false, fmt.Errorf("fedroad: state snapshot has %d silos, federation has %d", p32, f.Silos())
	}
	m32, err := u32()
	if err != nil {
		return false, err
	}
	m := f.inner.Graph().NumArcs()
	if int(m32) != m {
		return false, fmt.Errorf("fedroad: state snapshot covers %d arcs, graph has %d", m32, m)
	}
	weights := make([][]int64, f.Silos())
	for p := range weights {
		ws := make([]int64, m)
		for a := 0; a < m; a++ {
			v, err := u64()
			if err != nil {
				return false, fmt.Errorf("fedroad: state silo %d weights: %w", p, err)
			}
			w := int64(v)
			// fed.Silo.SetWeight enforces this with a panic; a snapshot that
			// violates it is corrupt, which must surface as an error.
			if w <= 0 || w >= MaxTravelMs {
				return false, fmt.Errorf("fedroad: state silo %d arc %d weight %d outside (0,%d)", p, a, w, MaxTravelMs)
			}
			ws[a] = w
		}
		weights[p] = ws
	}
	kind, err := br.ReadByte()
	if err != nil {
		return false, err
	}
	// ReadIndex validates the stream against the federation's topology and
	// silo count, and BuildSkeleton reads only the topology: no lock yet.
	var idx *ch.Index
	var derived *ch.Skeleton
	switch kind {
	case indexNone:
	case indexWitness:
		idx, err = ch.ReadIndex(f.inner, br, nil)
	case indexCustomized:
		f.mu.RLock()
		sk := f.skel
		f.mu.RUnlock()
		if sk == nil {
			sk, err = ch.BuildSkeleton(f.inner.Graph())
			derived = sk
		}
		if err == nil {
			idx, err = ch.ReadIndex(f.inner, br, sk)
		}
	default:
		return false, fmt.Errorf("fedroad: state index kind %d invalid", kind)
	}
	if err != nil {
		return false, err
	}
	// A kind byte flipped to a shorter kind leaves index bytes behind.
	if _, err := br.ReadByte(); err == nil {
		return false, fmt.Errorf("fedroad: state snapshot has trailing bytes after index kind %d", kind)
	} else if err != io.EOF {
		return false, fmt.Errorf("fedroad: state snapshot end: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for p, ws := range weights {
		silo := f.inner.Silo(p)
		for a := 0; a < m; a++ {
			silo.SetWeight(Arc(a), ws[a])
		}
	}
	if idx != nil {
		f.index = idx
	}
	if derived != nil && f.skel == nil {
		f.skel = derived
	}
	// The traffic version is restored LAST: it must describe the weights and
	// index now in place, and restoring it also keys every WAL delta replayed
	// on top (deltas with versions <= this one are already in the snapshot).
	f.trafficVer = trafficVer
	return idx != nil, nil
}
