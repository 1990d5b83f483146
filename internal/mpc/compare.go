package mpc

import (
	"crypto/subtle"
	"fmt"
	"math/bits"

	"repro/internal/transport"
)

// The comparison protocol runs k independent comparisons inside ONE
// RoundsPerCompare-round instance: masked openings, carry-level openings and
// result bits of all k instances travel in the same frames, so communication
// rounds — the latency-dominated cost on real networks — are paid once per
// batch. A single comparison is simply k = 1: there is no scalar variant of
// the protocol.
//
// Frame layout (every party broadcasts one frame per round):
//
//	round 1      6k bytes: instance i's masked opening d_i + r_i mod 2^48
//	             as 6 little-endian bytes at offset 6i
//	levels 2, 3  ⌈wires·k/8⌉ bytes (20 and 4 wires): one dense bit-stream,
//	             LSB-first — opened wire j of the level (groups lowest
//	             first, each group's opened slots ascending) occupies stream
//	             bits j·k … j·k+k−1; instance i is bit i of a vector; only
//	             the last byte is zero-padded
//	last round   ⌈k/8⌉ bytes: the k result-bit shares, same bit order
//
// batchWireCost (engine.go) restates these sizes as the analytic cost.
//
// FedRoad batches the TM-tree's tournament build, the SPSP frontier's
// μ-updates and the CH builder's witness searches and customization, whose
// level-wise comparisons are independent by construction (§VI).

// The borrow circuit. D = C − R is negative iff its bit K−1 is set:
// d_{K−1} = c_{K−1} ⊕ r_{K−1} ⊕ β, where β, the borrow into bit K−1, is the
// generate of the NumLeaves leaves 0..K−2 with
//
//	g_b = ¬c_b ∧ r_b          (bit b generates a borrow)
//	p_b = ¬(c_b ⊕ r_b)        (bit b passes a borrow through)
//
// A carry group folds up to four (generate, propagate) pairs x_i, y_i,
// lowest first, into one:
//
//	G = x3 ⊕ y3·x2 ⊕ y3·y2·x1 ⊕ y3·y2·y1·x0      P = y3·y2·y1·y0
//
// (the ⊕ are ORs of mutually exclusive terms). Three levels of groups take
// the 47 leaves to one: 12 groups (11 of four leaves, the top one of three),
// then 3, then 1 of three inputs. The lowest group of a level needs no P:
// nothing above it reads one.
//
// Every wire the circuit multiplies is affine in ONE secret bit v,
// x = α ⊕ β·v with α and β public per lane, and no product term holds two
// wires of the same secret bit. A term's product therefore expands into
// Σ_S (Π_{w∈S} β_w)(Π_{w∉S} α_w)·v_S over the subsets S of its wires, v_S
// being the AND of S's secret bits, so a party evaluates its share of a whole
// group locally from dealt XOR shares of every v_S with |S| ≥ 2:
//
//	level 1     leaf b: g_b = ¬c_b·r_b and p_b = ¬c_b ⊕ r_b are affine in
//	            r_b with c public: no round at all; the dealt products are
//	            subsets of a group's r-bits.
//	levels 2, 3 each wire entering a product of two or more is opened once
//	            as x ⊕ m under a fresh dealt mask m (one round per level), so
//	            x = o ⊕ m with o public; the dealt products are subsets of a
//	            group's masks. A group's top generate enters G alone and
//	            stays unopened, as does the lowest group's y0.

// fanIn is the number of (generate, propagate) pairs a carry group folds.
const fanIn = 4

// carryLevels is the depth of the fan-in-4 circuit over NumLeaves leaves:
// 47 → 12 → 3 → 1.
const carryLevels = 3

// RoundsPerCompare is the number of communication rounds of one comparison:
// fused masked opening (the inputs are already an additive sharing, so no
// separate input-sharing round exists), one per opened carry level (the
// first level is dealt and opens nothing), result opening.
const RoundsPerCompare = 1 + (carryLevels - 1) + 1

// MasksPerCompare is the number of wires the opened carry levels open, each
// under its own dealt mask: 20 at level 2 (seven per group, six in the
// lowest) and 4 at level 3 (its one three-input group, which has no P).
const MasksPerCompare = 24

// ProductsPerCompare is the number of dealt subset products one comparison
// consumes: 11 per four-leaf group and 4 for the three-leaf one at level 1
// (every subset of ≥ 2 of a group's r-bits), 22 per group and 15 in the
// lowest at level 2, and 5 in level 3's three-input group (every subset of
// ≥ 2 masks inside one product term).
const ProductsPerCompare = 189

// carryGroup is one group of the circuit with its expansion precomputed.
// Wire slot i < fanIn is generate x_i, slot fanIn+i propagate y_i.
type carryGroup struct {
	in, size int // inputs in..in+size−1: leaves at level 1, else groups of the level below
	terms    []carryTerm
	open     []int // slots opened under a mask, ascending (levels 2, 3)
	mask     int   // TupleBlock.Masks offset of open[0]
	prod     int   // TupleBlock.Prods offset of the group's first product
	nprod    int   // its number of products
}

// maxGroupProducts bounds the products of one group: 22 for a fan-in-4
// group with P.
const maxGroupProducts = 22

// carryTerm is one product of G or P.
type carryTerm struct {
	p     bool  // a term of P, else of G
	slots []int // the wires it multiplies
	// src[s] locates the share of v_s, for the subset s of slots (bit i =
	// slots[i]), among the shares eval gathers: 0 is the constant 1, 1+slot
	// a slot's secret bit, 1+2·fanIn+i the group's product i.
	src []uint8
}

// circuit holds the carry groups, level by level, lowest group first.
// productFactors[i] lists the secret bits whose AND is dealt as
// TupleBlock.Prods[i]: r-bit b as b, mask j as K+j.
var circuit, productFactors = planCircuit()

// planCircuit lays the circuit out: the masks of the opened levels and the
// products of every level are numbered group by group in circuit order, a
// group's products in ascending order of their bitmask over its secret bits
// (bit i = r-bit in+i at level 1, else bit s = the mask of slot s).
func planCircuit() ([][]carryGroup, [][]int) {
	var levels [][]carryGroup
	var factors [][]int
	masks := 0
	for inputs, leaf := NumLeaves, true; inputs > 1; inputs, leaf = (inputs+fanIn-1)/fanIn, false {
		var level []carryGroup
		for in := 0; in < inputs; in += fanIn {
			grp, f := newCarryGroup(in, min(fanIn, inputs-in), leaf, in > 0, masks)
			grp.prod = len(factors)
			masks += len(grp.open)
			factors = append(factors, f...)
			level = append(level, grp)
		}
		levels = append(levels, level)
	}
	if len(levels) != carryLevels || masks != MasksPerCompare || len(factors) != ProductsPerCompare {
		panic(fmt.Sprintf("mpc: circuit has %d levels, %d masks, %d products", len(levels), masks, len(factors)))
	}
	return levels, factors
}

// newCarryGroup expands one group's terms, its masks numbered from mask,
// and returns it with the factors of its products in layout order.
func newCarryGroup(in, size int, leaf, needP bool, mask int) (carryGroup, [][]int) {
	grp := carryGroup{in: in, size: size, mask: mask}
	for i := 0; i < size; i++ { // x_i · y_{i+1} ⋯ y_{size−1}
		t := carryTerm{slots: []int{i}}
		for j := i + 1; j < size; j++ {
			t.slots = append(t.slots, fanIn+j)
		}
		grp.terms = append(grp.terms, t)
	}
	if needP { // y_0 ⋯ y_{size−1}
		t := carryTerm{p: true}
		for j := 0; j < size; j++ {
			t.slots = append(t.slots, fanIn+j)
		}
		grp.terms = append(grp.terms, t)
	}
	secret := func(slot int) uint {
		if leaf {
			return 1 << (slot % fanIn)
		}
		return 1 << slot
	}
	// subsetOf maps a subset of a term's wires to its secret-bit bitmask.
	subsetOf := func(t carryTerm, s int) uint {
		var m uint
		for i, slot := range t.slots {
			if s>>i&1 == 1 {
				m |= secret(slot)
			}
		}
		return m
	}
	var used [1 << (2 * fanIn)]bool
	var opened uint
	for _, t := range grp.terms {
		for s := 0; s < 1<<len(t.slots); s++ {
			if bits.OnesCount(uint(s)) >= 2 {
				used[subsetOf(t, s)] = true
			}
		}
		if len(t.slots) >= 2 {
			for _, slot := range t.slots {
				opened |= 1 << slot
			}
		}
	}
	if !leaf {
		for slot := 0; slot < 2*fanIn; slot++ {
			if opened>>slot&1 == 1 {
				grp.open = append(grp.open, slot)
			}
		}
	}
	var factors [][]int
	var at [len(used)]int // a used subset's offset among the group's products
	for m, u := range used {
		if !u {
			continue
		}
		at[m] = len(factors)
		var f []int
		for b := 0; b < 2*fanIn; b++ {
			switch {
			case m>>b&1 == 0:
			case leaf:
				f = append(f, in+b)
			default: // the mask of slot b, the rank of b among the opened slots
				f = append(f, K+mask+bits.OnesCount(opened&(1<<b-1)))
			}
		}
		factors = append(factors, f)
	}
	for ti := range grp.terms {
		t := &grp.terms[ti]
		t.src = make([]uint8, 1<<len(t.slots))
		for s := range t.src {
			switch bits.OnesCount(uint(s)) {
			case 0:
			case 1:
				t.src[s] = uint8(1 + t.slots[bits.TrailingZeros(uint(s))])
			default:
				t.src[s] = uint8(1 + 2*fanIn + at[subsetOf(*t, s)])
			}
		}
	}
	if grp.nprod = len(factors); grp.nprod > maxGroupProducts {
		panic(fmt.Sprintf("mpc: a carry group with %d products", grp.nprod))
	}
	return grp, factors
}

// eval returns this party's shares of the group's G and P (P = 0 when the
// group has no P term) on one word of lanes. Slot s carries the wire
// α[s] ⊕ β[s]·v with α, β public and v[s] this party's share of its secret
// bit; prods are its shares of the group's dealt products and one its share
// of the constant 1 (all-ones at party 0, else zero).
func (grp *carryGroup) eval(alpha, beta, v *[2 * fanIn]uint64, prods []uint64, one uint64) (g, p uint64) {
	var shares [1 + 2*fanIn + maxGroupProducts]uint64
	shares[0] = one
	copy(shares[1:], v[:])
	copy(shares[1+2*fanIn:], prods[:grp.nprod])
	var coef [1 << fanIn]uint64
	for ti := range grp.terms {
		t := &grp.terms[ti]
		// coef[s] = Π_{i∈s} β · Π_{i∉s} α over the term's wires, built up
		// one wire at a time.
		coef[0] = ^uint64(0)
		for i, slot := range t.slots {
			a, b, n := alpha[slot], beta[slot], 1<<i
			for s := 0; s < n; s++ {
				coef[s|n] = coef[s] & b
				coef[s] &= a
			}
		}
		var acc uint64
		for s, at := range t.src {
			acc ^= coef[s] & shares[at]
		}
		if t.p {
			p ^= acc
		} else {
			g ^= acc
		}
	}
	return g, p
}

// RunCompareBatchParty executes one party's role for k comparisons at once
// over an arbitrary transport. diffs[i] is the party's private input d_p of
// instance i, whose correlated randomness is lane i%64 of blocks[i/64] — this
// party's blocks of ⌈k/64⌉ deals, read in place; the protocol decides, per
// instance, whether D = Σ_p d_p (as a two's-complement signed value) is
// negative. Every party learns the same k bits and nothing else.
//
// This is the only function that performs comparison rounds: each circuit
// wire holds one bit of every instance in machine-word lanes (see pack.go),
// so every carry group is evaluated 64 lanes at a time in plain uint64
// arithmetic.
func RunCompareBatchParty(conn transport.Conn, diffs []int64, blocks []*TupleBlock) ([]bool, error) {
	me, n := conn.Party(), conn.N()
	k := len(diffs)
	W := wordsFor(k)
	if len(blocks) != W {
		return nil, fmt.Errorf("mpc: %d tuple blocks for %d comparisons, need %d", len(blocks), k, W)
	}
	if k == 0 {
		return nil, nil
	}

	// Round 1 — fused masked openings C_i = D_i + R_i, all in one frame. The
	// inputs d_p already form an additive sharing of D, so instead of a
	// separate input-sharing round each party broadcasts m_p = d_p + r_p
	// directly, where r_p is its additive share of the dealer's uniform mask
	// R. Any n−1 of the m_p are jointly uniform (each is masked by an r_p the
	// observer does not hold), and their sum opens only C = D + R.
	frame := getFrame(openBytes * k)
	for i, d := range diffs {
		putU48(frame[openBytes*i:], uint64(d)+blocks[i>>6].R[i&63])
	}
	opened, err := broadcast(conn, frame)
	if err != nil {
		putFrame(frame)
		return nil, err
	}
	cs := make([]uint64, k)
	for q := 0; q < n; q++ {
		for i := 0; i < k; i++ {
			cs[i] += getU48(opened[q][openBytes*i:])
		}
	}
	putFrame(frame)

	// Transpose the openings into word lanes, complemented: vector b of nc is
	// ¬c_b of every instance (word b*W+w covers instances 64w..64w+63, as
	// blocks[w] does). Only the K ring bits are read, so the sum's carries
	// above bit K−1 drop out: C is D + R mod 2^K. Lanes ≥ k hold unused
	// randomness and garbage derived from public values; putLanes drops
	// them.
	nc := getWords(K * W)
	defer putWords(nc)
	for i, c := range cs {
		wi, bit := i>>6, uint(i&63)
		for b := 0; b < K; b++ {
			nc[b*W+wi] |= (c >> uint(b) & 1) << bit
		}
	}
	for i := range nc {
		nc[i] = ^nc[i]
	}
	var one uint64
	if me == 0 {
		one = ^uint64(0)
	}

	// Level 1, local: leaf b's generate is ¬c_b·r_b, its propagate
	// ¬c_b ⊕ r_b.
	first := circuit[0]
	gs, ps := getWords(len(first)*W), getWords(len(first)*W)
	for w, blk := range blocks {
		for j := range first {
			grp := &first[j]
			var alpha, beta, v [2 * fanIn]uint64
			for i := 0; i < grp.size; i++ {
				a, r := nc[(grp.in+i)*W+w], blk.RBits[grp.in+i]
				alpha[i], beta[i], v[i] = 0, a, r
				alpha[fanIn+i], beta[fanIn+i], v[fanIn+i] = a, ^uint64(0), r
			}
			gs[j*W+w], ps[j*W+w] = grp.eval(&alpha, &beta, &v, blk.Prods[grp.prod:], one)
		}
	}

	// Levels 2 and 3, one opening round each.
	for _, level := range circuit[1:] {
		ng, np, err := carryLevel(conn, level, gs, ps, blocks, k, one)
		putWords(gs)
		putWords(ps)
		if err != nil {
			return nil, err
		}
		gs, ps = ng, np
	}
	defer putWords(gs)
	defer putWords(ps)

	// Final round — open all k result bits in one vector. Sign bit of D:
	// d_{K-1} = c_{K-1} ⊕ r_{K-1} ⊕ G, where the borrow into the top bit is
	// the circuit's total generate G.
	res := getWords(W)
	defer putWords(res)
	for w, blk := range blocks {
		res[w] = blk.RBits[K-1] ^ gs[w] ^ one&^nc[(K-1)*W+w]
	}
	resFrame := getFrame(streamBytes(k))
	putLanes(resFrame, 0, res, k)
	if err := openXOR(conn, resFrame); err != nil {
		putFrame(resFrame)
		return nil, err
	}
	getLanes(res, resFrame, 0, k)
	putFrame(resFrame)
	out := make([]bool, k)
	for i := 0; i < k; i++ {
		out[i] = res[i>>6]>>(uint(i)&63)&1 == 1
	}
	return out, nil
}

// carryLevel evaluates one opened level: every wire of the level's groups
// that enters a product is opened under its mask, all in one frame, and each
// group is then folded locally. gIn and pIn hold the level below's G and P
// vectors; the returned vectors are pooled words.
func carryLevel(conn transport.Conn, level []carryGroup, gIn, pIn []uint64, blocks []*TupleBlock, k int, one uint64) (gOut, pOut []uint64, err error) {
	W := len(blocks)
	wire := func(grp *carryGroup, slot int) []uint64 {
		in, vecs := grp.in+slot, gIn
		if slot >= fanIn {
			in, vecs = grp.in+slot-fanIn, pIn
		}
		return vecs[in*W : (in+1)*W]
	}
	base := level[0].mask
	frame := getFrame(streamBytes(openedWires(level) * k))
	defer putFrame(frame)
	opened := getWords(2 * fanIn * W) // slot s of the current group at s*W
	defer putWords(opened)
	for gi := range level {
		grp := &level[gi]
		for o, slot := range grp.open {
			vec := opened[:W]
			for w, x := range wire(grp, slot) {
				vec[w] = x ^ blocks[w].Masks[grp.mask+o]
			}
			putLanes(frame, (grp.mask+o-base)*k, vec, k)
		}
	}
	if err := openXOR(conn, frame); err != nil {
		return nil, nil, err
	}
	gOut, pOut = getWords(len(level)*W), getWords(len(level)*W)
	for gi := range level {
		grp := &level[gi]
		for o, slot := range grp.open {
			getLanes(opened[slot*W:(slot+1)*W], frame, (grp.mask+o-base)*k, k)
		}
		for w, blk := range blocks {
			// An unopened wire is its own share: α = 0, β = 1, v = the share.
			var alpha, beta, v [2 * fanIn]uint64
			for i := 0; i < grp.size; i++ {
				for _, slot := range [2]int{i, fanIn + i} {
					beta[slot], v[slot] = ^uint64(0), wire(grp, slot)[w]
				}
			}
			for o, slot := range grp.open {
				alpha[slot], v[slot] = opened[slot*W+w], blk.Masks[grp.mask+o]
			}
			gOut[gi*W+w], pOut[gi*W+w] = grp.eval(&alpha, &beta, &v, blk.Prods[grp.prod:], one)
		}
	}
	return gOut, pOut, nil
}

// openedWires is the number of wires an opened level opens: its frame
// carries that many k-lane vectors.
func openedWires(level []carryGroup) int {
	last := &level[len(level)-1]
	return last.mask + len(last.open) - level[0].mask
}

// openXOR opens XOR-shared bits: it broadcasts this party's frame of shares
// and folds every peer's frame into it, leaving the opened values in frame.
func openXOR(conn transport.Conn, frame []byte) error {
	opened, err := broadcast(conn, frame)
	if err != nil {
		return err
	}
	for q, peer := range opened {
		if q != conn.Party() {
			subtle.XORBytes(frame, frame, peer)
		}
	}
	return nil
}

// broadcast sends data to every peer and collects every peer's frame for the
// same round. The returned slice is indexed by party; the caller's own frame
// sits at its own index.
func broadcast(conn transport.Conn, data []byte) ([][]byte, error) {
	me, n := conn.Party(), conn.N()
	out := make([][]byte, n)
	out[me] = data
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		if err := conn.Send(q, data); err != nil {
			return nil, fmt.Errorf("mpc: broadcast to %d: %w", q, err)
		}
	}
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		msg, err := conn.Recv(q)
		if err != nil {
			return nil, fmt.Errorf("mpc: broadcast from %d: %w", q, err)
		}
		if len(msg) != len(data) {
			return nil, fmt.Errorf("mpc: broadcast frame size mismatch from %d: %d != %d", q, len(msg), len(data))
		}
		out[q] = msg
	}
	return out, nil
}
