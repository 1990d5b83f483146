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
// taken against a different network. The index part holds only what the
// federation decided (ch.WriteIndex): every private partial of the index is a
// sum of one silo's weights, which the snapshot already holds, so a silo
// persists nothing private beyond the weights it owns.
//
// Format (little-endian): magic, version, topology fingerprint, traffic
// version, silo count, arc count, P×m silo weights, an index-kind byte
// (indexNone, indexWitness, indexCustomized), then — unless none — the
// ch.WriteIndex stream. A customized index's skeleton is not in it: the
// skeleton is a function of the topology, so RestoreState re-derives it (or
// reuses the federation's).

// Version 1 embedded the FRIX bundle, whose v2 stored the skeleton; version 2
// stored a customized index's children per arc, not its pair-group winners;
// version 3 stored every overlay arc and a weight shard per silo.
const (
	stateMagic   = 0x46525354 // "FRST"
	stateVersion = 4
)

// Index kinds of a state snapshot.
const (
	indexNone byte = iota
	indexWitness
	indexCustomized
)

// ErrStateVersion tags a snapshot written in a format this build does not
// read (versions 1 to 3 stored index parts the restore now derives): the
// snapshot must be discarded, and the federation rebuilt from its graph.
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
	g := f.Graph()
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
// silo weights, traffic version, and the shortcut index when built — all of
// one published version, so it never waits for or interleaves with a writer.
func (f *Federation) SaveState(w io.Writer) error {
	v := f.cur.Load()
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
	m := v.fed.Graph().NumArcs()
	for _, word := range []uint32{stateMagic, stateVersion} {
		if err := u32(word); err != nil {
			return err
		}
	}
	if err := u64(f.fingerprint()); err != nil {
		return err
	}
	if err := u64(v.traffic); err != nil {
		return err
	}
	if err := u32(uint32(v.fed.P())); err != nil {
		return err
	}
	if err := u32(uint32(m)); err != nil {
		return err
	}
	for p := 0; p < v.fed.P(); p++ {
		ws := v.fed.Silo(p).Weights()
		for a := 0; a < m; a++ {
			if err := u64(uint64(ws[a])); err != nil {
				return err
			}
		}
	}
	kind := indexNone
	switch {
	case v.index == nil:
	case v.index.Customized():
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
	if v.index != nil {
		return v.index.WriteIndex(w)
	}
	return nil
}

// RestoreState loads a SaveState snapshot into the federation: silo weights,
// the shortcut index (validated as ch.ReadIndex validates it, its partials
// derived from the restored weights, so a restore runs no Fed-SAC) or none,
// and the snapshot's traffic version, published together as one version. A
// customized index is attached to the federation's skeleton when it has one
// (its customization plan survives); otherwise the skeleton is derived and
// published with the index. Everything is validated before the writer mutex
// is taken; on error nothing is published. The install waits for a
// derivation in progress, which publishes first and is then replaced.
// Intended for startup (fedserver -persist). It returns whether the snapshot
// carried an index.
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
	m := f.Graph().NumArcs()
	if int(m32) != m {
		return false, fmt.Errorf("fedroad: state snapshot covers %d arcs, graph has %d", m32, m)
	}
	weights := make([]Weights, f.Silos())
	for p := range weights {
		ws := make([]int64, m)
		for a := 0; a < m; a++ {
			v, err := u64()
			if err != nil {
				return false, fmt.Errorf("fedroad: state silo %d weights: %w", p, err)
			}
			w := int64(v)
			// Every weight a federation holds lies in this range; a snapshot
			// that violates it is corrupt, which must surface as an error.
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
	// The restored version's weights; ReadIndex validates the stream against
	// the topology and derives the index over them. No writer waits yet.
	cur := f.cur.Load()
	next := &version{traffic: trafficVer, fed: cur.fed.WithWeights(weights), skel: cur.skel}
	switch kind {
	case indexNone:
	case indexWitness:
		next.index, err = ch.ReadIndex(next.fed, br, nil)
	case indexCustomized:
		if err = withSkeleton(next); err == nil {
			next.index, err = ch.ReadIndex(next.fed, br, next.skel)
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
	// The snapshot replaces weights, index and traffic version together: an
	// index-less snapshot publishes no index, whatever served before. The
	// restored version also keys every WAL delta replayed on top (deltas with
	// versions <= this one are already in the snapshot).
	f.write.Lock()
	defer f.write.Unlock()
	if next.skel == nil {
		next.skel = f.cur.Load().skel // one published meanwhile fits the same topology
	}
	f.cur.Store(next)
	return next.index != nil, nil
}
