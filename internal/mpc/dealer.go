package mpc

import (
	"encoding/binary"
	"math/rand/v2"
)

// TupleBlock is one party's share of the correlated randomness of 64
// comparison lanes, in the layout the kernel computes on (see pack.go):
// instance i of a k-batch is lane i%64 of block i/64. The dealer deals it
// and RunCompareBatchParty indexes it in place; a batch
// discards the lanes ≥ k of its last block, so no block is ever used twice.
type TupleBlock struct {
	// R[i] is the additive share of lane i's mask R, mod 2^K.
	R [64]uint64
	// RBits[b] is the XOR share of bit b of every lane's R.
	RBits [K]uint64
	// Masks[j] is the XOR share of the mask under which the carry circuit
	// opens its j-th wire, level 2's first (see RunCompareBatchParty).
	Masks [MasksPerCompare]uint64
	// Prods[i] is the XOR share of the AND of the secret bits (r-bits or
	// masks) productFactors[i] lists: the subset products the carry groups
	// expand into, group by group in circuit order.
	Prods [ProductsPerCompare]uint64
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
// per party, which serves up to 64 comparisons run as one batch word — into
// fresh memory. See deal.
func (d *Dealer) CmpTuples() []TupleBlock {
	blocks := make([]TupleBlock, d.n)
	d.deal(blocks)
	return blocks
}

// dealtVector is the length of the vector of secrets a deal computes:
// r-bits, masks, then products (see productSteps).
const dealtVector = K + MasksPerCompare + ProductsPerCompare

// deal deals one comparison's correlated randomness into blocks, one per
// party, overwriting every field, so the engine redeals one slab in place.
// Every share vector of parties 1..n−1 is a raw PRG word and party 0's is
// the secret minus (R) or XOR (bits, masks, products) the rest, so any n−1
// blocks are jointly uniform.
func (d *Dealer) deal(blocks []TupleBlock) {
	rest := blocks[1:]

	var rbits [64]uint64 // the lanes' masks; once transposed, vector b = bit b of every lane's mask
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
	// The secrets: r-bits (bits ≥ K lie outside the ring), fresh masks, and
	// each product as one AND of a secret dealt before it and its last
	// factor.
	var x [dealtVector]uint64
	copy(x[:K], rbits[:K])
	for j := K; j < K+MasksPerCompare; j++ {
		x[j] = d.rng.Uint64()
	}
	for i, st := range productSteps {
		x[K+MasksPerCompare+i] = x[st[0]] & x[st[1]]
	}
	// Party 0's XOR-shared vectors start as the secrets.
	zero := &blocks[0]
	copy(zero.RBits[:], x[:K])
	copy(zero.Masks[:], x[K:])
	copy(zero.Prods[:], x[K+MasksPerCompare:])
	for p := range rest {
		d.xorShare(rest[p].RBits[:], zero.RBits[:])
		d.xorShare(rest[p].Masks[:], zero.Masks[:])
		d.xorShare(rest[p].Prods[:], zero.Prods[:])
	}
}

// xorShare fills one party's share vector with raw PRG words and XORs them
// into party 0's.
func (d *Dealer) xorShare(share, zero []uint64) {
	for i := range share {
		s := d.rng.Uint64()
		share[i] = s
		zero[i] ^= s
	}
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
