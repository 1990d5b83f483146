package mpc

import (
	"crypto/subtle"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
//	round 2      ⌈14k/8⌉ bytes: the carry level's 14 opened wires as one
//	             dense bit-stream, LSB-first — opened wire j (its group's
//	             opened slots ascending) occupies stream bits j·k … j·k+k−1;
//	             instance i is bit i of a vector; only the last byte is
//	             zero-padded
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
// A carry group folds up to eight (generate, propagate) pairs x_i, y_i,
// lowest first, into one:
//
//	G = x_{s−1} ⊕ y_{s−1}·x_{s−2} ⊕ … ⊕ y_{s−1}⋯y_1·x_0      P = y_{s−1}⋯y_0
//
// (the ⊕ are ORs of mutually exclusive terms). Two levels of groups take
// the 47 leaves to one: 8 groups of fan-in 6 (7 of six leaves, the top one
// of five), then 1 of eight inputs. The lowest group of a level needs no P:
// nothing above it reads one.
//
// Every wire the circuit multiplies is affine in ONE secret bit v,
// x = α ⊕ β·v with α and β public per lane, and no product term holds two
// wires of the same secret bit. A term's product therefore expands into
// Σ_S (Π_{w∈S} β_w)(Π_{w∉S} α_w)·v_S over the subsets S of its wires, v_S
// being the AND of S's secret bits, so a party evaluates its share of a whole
// group locally from dealt XOR shares of every v_S with |S| ≥ 2. The terms
// share their propagate suffixes, so eval builds the coefficients of
// y_{i+1}⋯y_{s−1} once, from the top term down, and the term x_i·y_{i+1}⋯
// reads them twice: against v_S (times α of x_i) and v_{S∪x_i} (times β).
//
//	level 1     leaf b: g_b = ¬c_b·r_b and p_b = ¬c_b ⊕ r_b are affine in
//	            r_b with c public: no round at all; the dealt products are
//	            subsets of a group's r-bits (57 per six-leaf group, 26 for
//	            the five-leaf one).
//	level 2     each wire entering a product of two or more is opened once
//	            as x ⊕ m under a fresh dealt mask m (one round: x_0…x_6 and
//	            y_1…y_7), so x = o ⊕ m with o public; the dealt products are
//	            the 367 subsets of its masks that lie inside one term. The
//	            top generate x_7 enters G alone and stays unopened; y_0 is
//	            read by no term.

// carryLevels is the depth of the circuit.
const carryLevels = 2

// levelFanIn is the fan-in of each carry level: 47 → 8 → 1.
var levelFanIn = [carryLevels]int{6, 8}

// maxFanIn is the widest group's fan-in. Wire slot i < maxFanIn of a group
// is generate x_i, slot maxFanIn+i propagate y_i, whatever its level.
const maxFanIn = 8

// RoundsPerCompare is the number of communication rounds of one comparison:
// fused masked opening (the inputs are already an additive sharing, so no
// separate input-sharing round exists), one per opened carry level (the
// first level is dealt and opens nothing), result opening.
const RoundsPerCompare = 1 + (carryLevels - 1) + 1

// MasksPerCompare is the number of wires the opened carry level opens, each
// under its own dealt mask: x_0…x_6 and y_1…y_7 of its one eight-input group,
// which has no P.
const MasksPerCompare = 14

// ProductsPerCompare is the number of dealt subset products one comparison
// consumes: 57 per six-leaf group and 26 for the five-leaf one at level 1
// (every subset of ≥ 2 of a group's r-bits), and 367 in level 2's group
// (every subset of ≥ 2 masks inside one product term).
const ProductsPerCompare = 792

// carryGroup is one group of the circuit with its expansion precomputed.
// Index s of a coefficient vector over propagates is the set of
// y_{size−1−k} for the bits k of s, so extending a vector by y_i, the
// next propagate down, appends its upper half.
type carryGroup struct {
	in, size int // inputs in..in+size−1: leaves at level 1, else groups of the level below
	// gReads[i][s] locates, among the shares eval reads, those of v_S and
	// v_{S∪x_i} for the set S of propagates above x_i that s indexes;
	// pReads[s] that of v_S for every S of the group's propagates (P
	// only: nil in the lowest group of a level).
	gReads [][][2]uint16
	pReads []uint16
	open   []int // slots opened under a mask, ascending (level 2)
	mask   int   // TupleBlock.Masks offset of open[0]
	prod   int   // TupleBlock.Prods offset of the group's first product
	nprod  int   // its number of products
}

// maxGroupProducts bounds the products of one group: 367 for the
// eight-input group without P.
const maxGroupProducts = 367

// The shares eval reads, one word each: 0 the constant 1 (all-ones at party
// 0, else zero), 1+slot the slot's secret bit, prodShare+j the group's
// product j.
const (
	prodShare = 1 + 2*maxFanIn
	numShares = prodShare + maxGroupProducts
)

// evalScratch is eval's working memory on one word of lanes: slot s carries
// the wire α[s] ⊕ β[s]·v, α and β public, v this party's share of its secret
// bit, sh[1+s]. The kernel takes one from a pool per call, so none of it
// grows a party goroutine's stack.
type evalScratch struct {
	alpha, beta [2 * maxFanIn]uint64
	sh          [numShares]uint64
	coef        [1 << maxFanIn]uint64
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// circuit holds the carry groups, level by level, lowest group first.
// productFactors[i] lists the secret bits whose AND is dealt as
// TupleBlock.Prods[i]: r-bit b as b, mask j as K+j. The dealer computes
// product i as one AND, x[productSteps[i][0]] & x[productSteps[i][1]], over
// the dealt vector x = r-bits, masks, products (x[K+MasksPerCompare+j] is
// product j): the product of its factors but the last, dealt earlier (or a
// lone secret bit), and its last factor.
var circuit, productFactors, productSteps = planCircuit()

// index16 returns i as a uint16 plan index, or panics: a plan index that
// does not fit is a plan bug, never a silent wrap.
func index16(i int) uint16 {
	if i < 0 || i > 0xffff {
		panic(fmt.Sprintf("mpc: circuit plan index %d does not fit 16 bits", i))
	}
	return uint16(i)
}

// planCircuit lays the circuit out: the masks of the opened level and the
// products of every level are numbered group by group in circuit order, a
// group's products in ascending order of their bitmask over its secret bits
// (bit i = r-bit in+i at level 1, else bit s = the mask of slot s). That
// order deals a product's predecessor, its set without the highest bit,
// before it.
func planCircuit() ([][]carryGroup, [][]int, [][2]uint16) {
	var levels [][]carryGroup
	var factors [][]int
	var steps [][2]uint16
	masks, inputs := 0, NumLeaves
	for l, fanIn := range levelFanIn {
		var level []carryGroup
		for in := 0; in < inputs; in += fanIn {
			grp, f := newCarryGroup(in, min(fanIn, inputs-in), l == 0, in > 0, masks)
			grp.prod = len(factors)
			masks += len(grp.open)
			for _, fs := range f {
				steps = append(steps, dealStep(factors, grp.prod, fs))
				factors = append(factors, fs)
			}
			level = append(level, grp)
		}
		levels = append(levels, level)
		inputs = len(level)
	}
	if inputs != 1 || masks != MasksPerCompare || len(factors) != ProductsPerCompare {
		panic(fmt.Sprintf("mpc: circuit has %d outputs, %d masks, %d products", inputs, masks, len(factors)))
	}
	return levels, factors, steps
}

// dealStep returns the dealer's one-AND step for a product with factors fs,
// factors[from:] being its group's products dealt before it: the
// dealt-vector index of the product of fs without its last factor (a lone
// secret bit when that leaves one), and of the last factor.
func dealStep(factors [][]int, from int, fs []int) [2]uint16 {
	head, last := fs[:len(fs)-1], index16(fs[len(fs)-1])
	if len(head) == 1 {
		return [2]uint16{index16(head[0]), last}
	}
	for j := from; j < len(factors); j++ {
		if slices.Equal(factors[j], head) {
			return [2]uint16{index16(K + MasksPerCompare + j), last}
		}
	}
	panic(fmt.Sprintf("mpc: product %v dealt before its predecessor", fs))
}

// newCarryGroup expands one group, its masks numbered from mask, and
// returns it with the factors of its products in layout order.
func newCarryGroup(in, size int, leaf, needP bool, mask int) (carryGroup, [][]int) {
	grp := carryGroup{in: in, size: size, mask: mask}
	// ys maps a coefficient index to its set of propagate slots.
	ys := func(s int) uint {
		var m uint
		for k := 0; s>>k != 0; k++ {
			m |= uint(s>>k&1) << (maxFanIn + size - 1 - k)
		}
		return m
	}
	// secret maps a set of wire slots to its set of secret bits: the
	// leaf's r-bit for both wires of leaf i (bit i), else the slot's mask
	// (bit slot).
	secret := func(w uint) uint {
		if leaf {
			return w&(1<<maxFanIn-1) | w>>maxFanIn
		}
		return w
	}
	// The wire sets the terms read: S and S ∪ x_i under x_i, every S for P.
	var sets []uint
	for i := 0; i < size; i++ {
		for s := 0; s < 1<<(size-1-i); s++ {
			sets = append(sets, ys(s), ys(s)|1<<i)
		}
	}
	if needP {
		for s := 0; s < 1<<size; s++ {
			sets = append(sets, ys(s))
		}
	}
	at := map[uint]int{} // a used set of secret bits → its offset among the group's products
	var opened uint
	for _, w := range sets {
		if bits.OnesCount(w) >= 2 {
			at[secret(w)] = 0
			opened |= w
		}
	}
	if !leaf {
		for slot := 0; slot < 2*maxFanIn; slot++ {
			if opened>>slot&1 == 1 {
				grp.open = append(grp.open, slot)
			}
		}
	}
	used := make([]uint, 0, len(at))
	for m := range at {
		used = append(used, m)
	}
	slices.Sort(used)
	var factors [][]int
	for _, m := range used {
		at[m] = len(factors)
		var f []int
		for b := 0; b < 2*maxFanIn; b++ {
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
	if grp.nprod = len(factors); grp.nprod > maxGroupProducts {
		panic(fmt.Sprintf("mpc: a carry group with %d products", grp.nprod))
	}
	src := func(w uint) uint16 {
		switch bits.OnesCount(w) {
		case 0:
			return 0
		case 1:
			return index16(1 + bits.TrailingZeros(w))
		}
		return index16(prodShare + at[secret(w)])
	}
	grp.gReads = make([][][2]uint16, size)
	for i := range grp.gReads {
		for s := 0; s < 1<<(size-1-i); s++ {
			grp.gReads[i] = append(grp.gReads[i], [2]uint16{src(ys(s)), src(ys(s) | 1<<i)})
		}
	}
	if needP {
		for s := 0; s < 1<<size; s++ {
			grp.pReads = append(grp.pReads, src(ys(s)))
		}
	}
	return grp, factors
}

// eval returns this party's shares of the group's G and P (P = 0 when the
// group has no P) from the wires and shares in x.
func (grp *carryGroup) eval(x *evalScratch) (g, p uint64) {
	alpha, beta, sh := &x.alpha, &x.beta, &x.sh
	// c[s] = Π_{y∈S} β · Π_{y∉S} α over the propagates above the current
	// term, S the set s indexes.
	c := &x.coef
	c[0] = ^uint64(0)
	for i := grp.size - 1; i >= 0; i-- {
		reads := grp.gReads[i]
		a, b := alpha[i], beta[i]
		for s, rd := range reads {
			g ^= c[s] & (a&sh[rd[0]] ^ b&sh[rd[1]])
		}
		if i > 0 || grp.pReads != nil { // extend by y_i
			a, b, n := alpha[maxFanIn+i], beta[maxFanIn+i], len(reads)
			for s := 0; s < n; s++ {
				c[s|n] = c[s] & b
				c[s] &= a
			}
		}
	}
	for s, rd := range grp.pReads {
		p ^= c[s] & sh[rd]
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
	x := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(x)
	x.sh[0] = one
	for w, blk := range blocks {
		for j := range first {
			grp := &first[j]
			for i := 0; i < grp.size; i++ {
				a, r := nc[(grp.in+i)*W+w], blk.RBits[grp.in+i]
				x.alpha[i], x.beta[i], x.sh[1+i] = 0, a, r
				x.alpha[maxFanIn+i], x.beta[maxFanIn+i], x.sh[1+maxFanIn+i] = a, ^uint64(0), r
			}
			copy(x.sh[prodShare:], blk.Prods[grp.prod:grp.prod+grp.nprod])
			gs[j*W+w], ps[j*W+w] = grp.eval(x)
		}
	}

	// Level 2, one opening round.
	for _, level := range circuit[1:] {
		ng, np, err := carryLevel(conn, level, gs, ps, blocks, k, x)
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
// vectors, x is eval's scratch with the constant 1 in place; the returned
// vectors are pooled words.
func carryLevel(conn transport.Conn, level []carryGroup, gIn, pIn []uint64, blocks []*TupleBlock, k int, x *evalScratch) (gOut, pOut []uint64, err error) {
	W := len(blocks)
	wire := func(grp *carryGroup, slot int) []uint64 {
		in, vecs := grp.in+slot, gIn
		if slot >= maxFanIn {
			in, vecs = grp.in+slot-maxFanIn, pIn
		}
		return vecs[in*W : (in+1)*W]
	}
	base := level[0].mask
	frame := getFrame(streamBytes(openedWires(level) * k))
	defer putFrame(frame)
	opened := getWords(2 * maxFanIn * W) // slot s of the current group at s*W
	defer putWords(opened)
	for gi := range level {
		grp := &level[gi]
		for o, slot := range grp.open {
			vec := opened[:W]
			for w, v := range wire(grp, slot) {
				vec[w] = v ^ blocks[w].Masks[grp.mask+o]
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
			for i := 0; i < grp.size; i++ {
				for _, slot := range [2]int{i, maxFanIn + i} {
					x.alpha[slot], x.beta[slot], x.sh[1+slot] = 0, ^uint64(0), wire(grp, slot)[w]
				}
			}
			for o, slot := range grp.open {
				x.alpha[slot], x.sh[1+slot] = opened[slot*W+w], blk.Masks[grp.mask+o]
			}
			copy(x.sh[prodShare:], blk.Prods[grp.prod:grp.prod+grp.nprod])
			gOut[gi*W+w], pOut[gi*W+w] = grp.eval(x)
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
