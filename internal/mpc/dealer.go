package mpc

import (
	"encoding/binary"
	"math/rand/v2"
)

// TriplesPerCompare is the number of Beaver bit triples one comparison
// consumes: two ANDs per carry-combine node of a binary tree over NumLeaves
// leaves, which has NumLeaves−1 nodes.
const TriplesPerCompare = 2 * (NumLeaves - 1)

// RoundsPerCompare is the number of communication rounds of one comparison:
// fused masked opening (the inputs are already an additive sharing, so no
// separate input-sharing round exists), one per level of the borrow tree
// (⌈log₂ NumLeaves⌉ = 6), result opening.
const RoundsPerCompare = 8

// TupleBlock is one party's share of the correlated randomness of 64
// comparison lanes, in the layout the kernel computes on (see pack.go):
// instance i of a k-batch is lane i%64 of block i/64. The dealer deals it,
// the pool buffers it and RunCompareBatchParty indexes it in place; a batch
// discards the lanes ≥ k of its last block, so no block is ever used twice.
type TupleBlock struct {
	// R[i] is the additive share of lane i's mask R.
	R [64]uint64
	// RBits[b] is the XOR share of bit b of every lane's R.
	RBits [K]uint64
	// A[t], B[t], C[t] are the XOR shares of Beaver bit triple t of every
	// lane (c = a ∧ b jointly); triple t serves circuit gate t.
	A, B, C [TriplesPerCompare]uint64
}

// Dealer produces correlated randomness for the online protocol. It models
// the offline/preprocessing phase of the underlying MPC stack (Temi's
// threshold-HE preprocessing in the paper's implementation): a
// non-colluding party that never sees inputs, outputs, or transcripts.
//
// A Dealer is deterministic in its seed, which keeps protocol-mode runs
// reproducible. It is not safe for concurrent use.
type Dealer struct {
	n   int
	rng *rand.ChaCha8
}

// NewDealer creates a dealer for n parties with a deterministic ChaCha8
// stream derived from seed.
func NewDealer(n int, seed uint64) *Dealer {
	if n < 2 {
		panic("mpc: dealer needs at least 2 parties")
	}
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], seed^0xa5a5a5a5a5a5a5a5)
	binary.LittleEndian.PutUint64(key[16:], 0x466564526f616421) // "FedRoad!"
	binary.LittleEndian.PutUint64(key[24:], ^seed)
	return &Dealer{n: n, rng: rand.NewChaCha8(key)}
}

// CmpTuples deals one comparison's correlated randomness — one TupleBlock
// per party, which serves up to 64 comparisons run as one batch word. Every
// share vector of parties 1..n−1 is a raw PRG word and party 0's is the
// secret minus (R) or XOR (bits, triples) the rest, so any n−1 blocks are
// jointly uniform.
func (d *Dealer) CmpTuples() []TupleBlock {
	blocks := make([]TupleBlock, d.n)
	rest := blocks[1:]

	var rbits [K]uint64 // the lanes' masks; once transposed, vector b = bit b of every lane's mask
	for i := range rbits {
		r := d.rng.Uint64()
		rbits[i] = r
		for p := range rest {
			s := d.rng.Uint64()
			rest[p].R[i] = s
			r -= s
		}
		blocks[0].R[i] = r
	}
	transpose64(&rbits)
	for b, v := range rbits {
		for p := range rest {
			s := d.rng.Uint64()
			rest[p].RBits[b] = s
			v ^= s
		}
		blocks[0].RBits[b] = v
	}
	for t := 0; t < TriplesPerCompare; t++ {
		a, b := d.rng.Uint64(), d.rng.Uint64()
		c := a & b
		for p := range rest {
			sa, sb, sc := d.rng.Uint64(), d.rng.Uint64(), d.rng.Uint64()
			rest[p].A[t], rest[p].B[t], rest[p].C[t] = sa, sb, sc
			a, b, c = a^sa, b^sb, c^sc
		}
		blocks[0].A[t], blocks[0].B[t], blocks[0].C[t] = a, b, c
	}
	return blocks
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of m[i] trades
// places with bit i of m[j]. Recursive block swap (Hacker's Delight §7-3).
func transpose64(m *[64]uint64) {
	for j, mask := uint(32), uint64(1)<<32-1; j != 0; j, mask = j>>1, mask^mask<<(j>>1) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (m[k]>>j ^ m[k+j]) & mask
			m[k] ^= t << j
			m[k+j] ^= t
		}
	}
}
