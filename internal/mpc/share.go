// Package mpc implements the secure multi-party computation substrate behind
// FedRoad's Fed-SAC operator: additive secret sharing over the ring Z_2^64
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
//  2. the borrow of the subtraction C − R is evaluated with a log-depth
//     binary tree of carry-combine gates over the shared bits, each level
//     batching its AND gates through Beaver bit triples (⌈log₂(K−1)⌉ rounds),
//  3. the resulting comparison bit — and nothing else — is opened (1 round).
//
// One kernel (RunCompareBatchParty) runs the protocol at every width: the
// circuits of k comparison instances share machine-word lanes (see pack.go)
// and each round's masked bits of all instances travel in one dense frame, so
// a whole frontier's comparisons cost the rounds of one. A single comparison
// is the same kernel at k = 1.
//
// The correlated randomness (R, its bit shares, and the bit triples) comes
// from a preprocessing Dealer, modelling MP-SPDZ's offline phase, which deals
// it 64 lanes at a time in the kernel's own layout (TupleBlock). Inputs and
// all intermediate values stay secret; the transcripts contain only uniformly
// masked openings and the final comparison bit.
package mpc

import "encoding/binary"

// K is the ring bit width. All arithmetic is mod 2^K with K = 64 so that
// values map directly onto uint64 two's-complement.
const K = 64

// NumLeaves is the number of borrow-circuit leaves: bits 0..K-2 feed the
// borrow into the sign bit K-1.
const NumLeaves = K - 1

// MaxMagnitude bounds |input difference| for a sound comparison: the sign bit
// of D = Σ diffs must be meaningful, so |D| must stay below 2^(K-1).
// Engine.CompareBatch enforces it per party (|diffs[p]| < MaxMagnitude/n,
// else ErrMagnitude). FedRoad path costs are < 2^40 and silo counts ≤ 64,
// leaving huge headroom.
const MaxMagnitude = int64(1) << 50

func putU64(dst []byte, v uint64) { binary.LittleEndian.PutUint64(dst, v) }
func getU64(src []byte) uint64    { return binary.LittleEndian.Uint64(src) }
