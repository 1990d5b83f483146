// Package mpc implements the secure multi-party computation substrate behind
// FedRoad's Fed-SAC operator: additive secret sharing over the ring Z_2^48
// and a semi-honest n-party secure comparison in the preprocessing model.
//
// The paper implements Fed-SAC on MP-SPDZ with the "Temi" protocol and the
// edaBits optimization. This package substitutes a from-scratch protocol with
// the same online structure (see DESIGN.md):
//
//  1. the sum D of the parties' input differences — which already form an
//     additive sharing of D — is opened masked as C = D + R for a random
//     ring element R whose bit decomposition is XOR-shared among the
//     parties (1 round; each party broadcasts d_p + r_p),
//  2. the borrow of the subtraction C − R is evaluated with a two-level
//     carry circuit over the shared bits: its first level (fan-in 6) is
//     affine in the bits of R and costs no round, its second (one group of
//     fan-in 8) opens every wire it multiplies once under a fresh mask
//     (1 round), and products of up to eight bits come from dealt shares of
//     subset products (preprocessed multi-input ANDs),
//  3. the resulting comparison bit — and nothing else — is opened (1 round).
//
// One kernel (RunCompareBatchParty) runs the protocol at every width: the
// circuits of k comparison instances share machine-word lanes (see pack.go)
// and each round's masked bits of all instances travel in one dense frame, so
// a whole frontier's comparisons cost the rounds of one. A single comparison
// is the same kernel at k = 1.
//
// The correlated randomness (R, its bit shares, the wire masks and the subset
// products) comes from a preprocessing Dealer, modelling MP-SPDZ's offline
// phase, which deals it 64 lanes at a time in the kernel's own layout
// (TupleBlock). Inputs and all intermediate values stay secret; the
// transcripts contain only uniformly masked openings and the final
// comparison bit.
package mpc

import "encoding/binary"

// K is the ring bit width: all arithmetic is mod 2^K. Values live in uint64
// words and only their low K bits are opened or decomposed. K = 48 keeps the
// masked opening byte-aligned (putU48) and leaves the sign bit K−1 above
// every difference FedRoad compares (see MaxMagnitude). It is not a knob:
// the circuit plan, TupleBlock and the wire format are sized by it.
const K = 48

// NumLeaves is the number of borrow-circuit leaves: bits 0..K-2 feed the
// borrow into the sign bit K-1.
const NumLeaves = K - 1

// MaxMagnitude bounds |input difference| for a sound comparison: the sign bit
// of D = Σ diffs must be meaningful, so |D| must stay below 2^(K-1).
// Engine.CompareBatch enforces it per party (|diffs[p]| < MaxMagnitude/n,
// else ErrMagnitude). Every FedRoad comparison has |d_p| < 2^41 — a
// partial-cost difference below graph.MaxPathCost = 2^40 plus a Fed-AMPS
// potential difference of at most the 2^40 clamp — so 2^47/n covers every
// federation of up to 64 silos, the bound fed.New enforces.
const MaxMagnitude = int64(1) << (K - 1)

// openBytes is the wire size of one ring element: K/8 = 6 bytes.
const openBytes = K / 8

// putU48 writes the low K bits of v, a ring element, as openBytes
// little-endian bytes.
func putU48(dst []byte, v uint64) {
	binary.LittleEndian.PutUint32(dst, uint32(v))
	binary.LittleEndian.PutUint16(dst[4:], uint16(v>>32))
}

// getU48 reads a ring element putU48 wrote.
func getU48(src []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(src)) | uint64(binary.LittleEndian.Uint16(src[4:]))<<32
}
