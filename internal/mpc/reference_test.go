package mpc

import (
	"bytes"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The byte-per-bit scalar comparison protocol, kept as a test-only reference
// for the word-lane kernel (RunCompareBatchParty). It shares no circuit or
// codec code with the kernel: it writes the borrow circuit as a plaintext
// fold, obtains every carry group's share from the fold's algebraic normal
// form (truth table, then Möbius transform), derives which wires to open and
// which products to read from that form alone, and packs its frames bit by
// bit. At k = 1 the two must produce
// byte-identical transcripts — which is also the proof that a party running
// the scalar protocol interoperates with one running the kernel.

// refLeafFan is the fan-in of the reference's leaf groups; refTopFan, the
// number of leaf groups, is the fan-in of its one opened group, whose wire
// slot i is generate i and slot refTopFan+i propagate i.
const (
	refLeafFan = 6
	refTopFan  = (K - 1 + refLeafFan - 1) / refLeafFan
)

// refTuple is the reference protocol's byte-per-bit view of one party's
// randomness for a single comparison.
type refTuple struct {
	RShare uint64
	RBits  [K]byte
	Masks  []byte
	Prods  []byte
}

// scalarTuple reads instance i's randomness — lane i%64 of blocks[i/64] —
// out of one party's blocks.
func scalarTuple(blocks []*TupleBlock, i int) *refTuple {
	blk, lane := blocks[i>>6], uint(i&63)
	tup := &refTuple{RShare: blk.R[lane]}
	for b := range tup.RBits {
		tup.RBits[b] = byte(blk.RBits[b] >> lane & 1)
	}
	for _, v := range blk.Masks {
		tup.Masks = append(tup.Masks, byte(v>>lane&1))
	}
	for _, v := range blk.Prods {
		tup.Prods = append(tup.Prods, byte(v>>lane&1))
	}
	return tup
}

// shareAdditive splits secret into n uniformly random additive shares over
// Z_2^64 using the given source of randomness.
func shareAdditive(rng *rand.Rand, secret uint64, n int) []uint64 {
	shares := make([]uint64, n)
	var sum uint64
	for i := 1; i < n; i++ {
		shares[i] = rng.Uint64()
		sum += shares[i]
	}
	shares[0] = secret - sum
	return shares
}

// reconstructAdditive recombines additive shares.
func reconstructAdditive(shares []uint64) uint64 {
	var sum uint64
	for _, s := range shares {
		sum += s
	}
	return sum
}

// shareBit splits a secret bit into n XOR shares.
func shareBit(rng *rand.Rand, secret byte, n int) []byte {
	shares := make([]byte, n)
	var acc byte
	for i := 1; i < n; i++ {
		shares[i] = byte(rng.Uint64() & 1)
		acc ^= shares[i]
	}
	shares[0] = (secret & 1) ^ acc
	return shares
}

// reconstructBit recombines XOR shares of a bit.
func reconstructBit(shares []byte) byte {
	var acc byte
	for _, s := range shares {
		acc ^= s
	}
	return acc & 1
}

// refFold folds (generate, propagate) pairs, lowest first: the borrow that
// leaves the span, and whether a borrow entering it passes through.
func refFold(g, p []byte) (G, P byte) {
	P = 1
	for i := range g {
		G = g[i] ^ p[i]&G
		P &= p[i]
	}
	return G, P
}

// refANF returns the algebraic normal form of the Boolean function f on
// nbits inputs: coefficient S is the XOR of f over the subsets of S.
func refANF(nbits int, f func(x int) byte) []byte {
	t := make([]byte, 1<<nbits)
	for x := range t {
		t[x] = f(x) & 1
	}
	for i := 0; i < nbits; i++ {
		for x := range t {
			if x>>i&1 == 1 {
				t[x] ^= t[x^1<<i]
			}
		}
	}
	return t
}

// leafOut is a leaf group's plaintext (G, P) for the leaves' public bits c
// and secret r-bits r (bit i = leaf i).
func leafOut(size, c, r int) (byte, byte) {
	var g, p [refLeafFan]byte
	for i := 0; i < size; i++ {
		ci, ri := byte(c>>i&1), byte(r>>i&1)
		g[i], p[i] = (1^ci)&ri, 1^ci^ri
	}
	return refFold(g[:size], p[:size])
}

// refLeafGroup is one leaf group as the reference lays it out.
type refLeafGroup struct {
	in, size int
	at       map[int]int // secret subset → offset among the group's products
	prod     int         // first product
}

// refTop is the opened group: it folds the leaf groups' outputs into the
// borrow. Its wires w are public-XOR-secret, w_s = o_s ⊕ m_s, so the share of
// a monomial w_T of the fold's ANF expands into Σ_{S⊆T} o_{T∖S}·m_S.
type refTop struct {
	monomials []int // the fold's ANF support over the wire slots
	open      []int // slots inside a product of ≥ 2 wires, ascending
	at        []int // slot subset of ≥ 2 wires → product offset (−1: none)
	prod      int   // first product
}

// refPlan lays out the circuit: leaf groups of refLeafFan lowest first, their
// products numbered group by group in ascending bitmask order (bit i = r-bit
// in+i), then the opened group's masks and products, numbered by ascending
// slot bitmask.
func refPlan() ([]refLeafGroup, refTop) {
	var leaves []refLeafGroup
	layouts := map[int]map[int]int{} // by group size; the lowest group, which needs no P, has the same products
	prods := 0
	for in := 0; in < K-1; in += refLeafFan {
		size := min(refLeafFan, K-1-in)
		if layouts[size] == nil {
			used := make([]bool, 1<<size)
			for c := 0; c < 1<<size; c++ {
				gs := refANF(size, func(r int) byte { g, _ := leafOut(size, c, r); return g })
				ps := refANF(size, func(r int) byte { _, p := leafOut(size, c, r); return p })
				for s := range used {
					used[s] = used[s] || gs[s]|ps[s] == 1
				}
			}
			at := map[int]int{}
			for s, u := range used {
				if u && bits.OnesCount(uint(s)) >= 2 {
					at[s] = len(at)
				}
			}
			layouts[size] = at
		}
		leaves = append(leaves, refLeafGroup{in: in, size: size, at: layouts[size], prod: prods})
		prods += len(layouts[size])
	}

	top := refTop{prod: prods, at: make([]int, 1<<(2*refTopFan))}
	anf := refANF(2*refTopFan, func(w int) byte {
		var g, p [refTopFan]byte
		for i := range g {
			g[i], p[i] = byte(w>>i&1), byte(w>>(refTopFan+i)&1)
		}
		G, _ := refFold(g[:], p[:])
		return G
	})
	used := make([]bool, len(anf))
	for m, c := range anf {
		if c == 0 {
			continue
		}
		top.monomials = append(top.monomials, m)
		for s := m; s > 0; s = (s - 1) & m {
			used[s] = used[s] || bits.OnesCount(uint(s)) >= 2
		}
	}
	var opened, n int
	for s, u := range used {
		top.at[s] = -1
		if u {
			top.at[s] = n
			n++
			opened |= s
		}
	}
	for slot := 0; slot < 2*refTopFan; slot++ {
		if opened>>slot&1 == 1 {
			top.open = append(top.open, slot)
		}
	}
	return leaves, top
}

var refLeaves, refTopGroup = refPlan()

// refCompareParty runs one party's role of a single comparison: one bit per
// byte for every circuit wire, global bit-packing per frame.
func refCompareParty(conn transport.Conn, diff uint64, tup *refTuple) (bool, error) {
	me, n := conn.Party(), conn.N()
	var one byte
	if me == 0 {
		one = 1
	}

	// The masked opening: the K-bit ring element, one byte at a time.
	m := diff + tup.RShare
	buf := make([]byte, K/8)
	for i := range buf {
		buf[i] = byte(m >> (8 * i))
	}
	opened, err := broadcast(conn, buf)
	if err != nil {
		return false, err
	}
	c := uint64(0)
	for q := 0; q < n; q++ {
		var v uint64
		for i, b := range opened[q] {
			v |= uint64(b) << (8 * i)
		}
		c += v
	}
	c &= 1<<K - 1

	// Leaf groups: for this c, each output's ANF over the group's r-bits
	// names the shares it sums.
	var wires [2 * refTopFan]byte // this party's shares of the top group's wires
	for j, grp := range refLeaves {
		cg := int(c >> uint(grp.in) & (1<<uint(grp.size) - 1))
		gs := refANF(grp.size, func(r int) byte { g, _ := leafOut(grp.size, cg, r); return g })
		ps := refANF(grp.size, func(r int) byte { _, p := leafOut(grp.size, cg, r); return p })
		for s := range gs {
			var v byte
			switch bits.OnesCount(uint(s)) {
			case 0:
				v = one
			case 1:
				v = tup.RBits[grp.in+bits.TrailingZeros(uint(s))]
			default:
				v = tup.Prods[grp.prod+grp.at[s]]
			}
			wires[j] ^= gs[s] & v
			wires[refTopFan+j] ^= ps[s] & v
		}
	}

	// The opened group: open its wires under their masks, then expand.
	top := refTopGroup
	masked := make([]byte, len(top.open))
	for i, slot := range top.open {
		masked[i] = wires[slot] ^ tup.Masks[i]
	}
	frame := make([]byte, (len(masked)+7)/8)
	packBits(frame, masked)
	frames, err := broadcast(conn, frame)
	if err != nil {
		return false, err
	}
	var o int                      // the opened values, bit s = slot s; unopened slots are 0
	var secret [2 * refTopFan]byte // m_s: a mask, or an unopened wire's own share
	copy(secret[:], wires[:])
	for i, slot := range top.open {
		var bit byte
		for q := 0; q < n; q++ {
			bit ^= unpackBit(frames[q], i)
		}
		o |= int(bit) << slot
		secret[slot] = tup.Masks[i]
	}
	var borrow byte
	for _, mono := range top.monomials {
		for s := mono; ; s = (s - 1) & mono {
			if o&(mono&^s) == mono&^s { // o_{T∖S} = 1
				var v byte
				switch bits.OnesCount(uint(s)) {
				case 0:
					v = one
				case 1:
					v = secret[bits.TrailingZeros(uint(s))]
				default:
					v = tup.Prods[top.prod+top.at[s]]
				}
				borrow ^= v
			}
			if s == 0 {
				break
			}
		}
	}

	resShare := tup.RBits[K-1] ^ borrow ^ one&byte(c>>(K-1))
	openedBits, err := broadcast(conn, []byte{resShare & 1})
	if err != nil {
		return false, err
	}
	var result byte
	for q := 0; q < n; q++ {
		result ^= openedBits[q][0]
	}
	return result&1 == 1, nil
}

// packBits stores bits (low bit of each byte) into dst, little-endian within
// bytes. dst must have length ≥ ceil(len(bits)/8).
func packBits(dst, bits []byte) {
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range bits {
		dst[i>>3] |= (b & 1) << (i & 7)
	}
}

// unpackBit extracts bit i from a packed buffer.
func unpackBit(src []byte, i int) byte {
	return (src[i>>3] >> (i & 7)) & 1
}

// recordingConn wraps a Conn and keeps every frame it sends, so tests can
// inspect one party's view of the transcript.
type recordingConn struct {
	transport.Conn
	sent [][]byte
}

func (r *recordingConn) Send(to int, data []byte) error {
	r.sent = append(r.sent, bytes.Clone(data))
	return r.Conn.Send(to, data)
}

// batchBlocks deals a k-batch's randomness from a seeded dealer, indexed
// [party][word]. The seed fixes the blocks, so two runs with the same seed
// consume identical correlated randomness.
func batchBlocks(n, k int, seed uint64) [][]*TupleBlock {
	dealer := NewDealer(n, seed)
	blocks := make([][]*TupleBlock, n)
	for w := 0; w < wordsFor(k); w++ {
		deal := dealer.CmpTuples()
		for p := range blocks {
			blocks[p] = append(blocks[p], &deal[p])
		}
	}
	return blocks
}

// runParties runs party(p, conn) on every endpoint of a fresh n-party
// in-process mesh and returns the agreed result bits, every party's sent
// frames in order, and the transport's measured stats.
func runParties(t *testing.T, n int, party func(p int, conn transport.Conn) ([]bool, error)) ([]bool, [][][]byte, transport.Stats) {
	t.Helper()
	mem := transport.NewMem(n)
	recs := make([]*recordingConn, n)
	outs := make([][]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		recs[p] = &recordingConn{Conn: mem.Conn(p)}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p], errs[p] = party(p, recs[p])
		}(p)
	}
	wg.Wait()
	sent := make([][][]byte, n)
	for p := range recs {
		if errs[p] != nil {
			t.Fatalf("party %d: %v", p, errs[p])
		}
		sent[p] = recs[p].sent
		for i := range outs[0] {
			if outs[p][i] != outs[0][i] {
				t.Fatalf("parties 0 and %d disagree on instance %d", p, i)
			}
		}
	}
	return outs[0], sent, mem.Stats()
}

// runKernel executes one k-batch through RunCompareBatchParty; diffs is
// [instance][party].
func runKernel(t *testing.T, n int, seed uint64, diffs [][]int64) ([]bool, [][][]byte, transport.Stats) {
	t.Helper()
	blocks := batchBlocks(n, len(diffs), seed)
	return runParties(t, n, func(p int, conn transport.Conn) ([]bool, error) {
		mine := make([]int64, len(diffs))
		for i := range mine {
			mine[i] = diffs[i][p]
		}
		return RunCompareBatchParty(conn, mine, blocks[p])
	})
}

// runReference executes the same comparisons one after another through the
// scalar reference protocol, on the same lanes runKernel would consume.
func runReference(t *testing.T, n int, seed uint64, diffs [][]int64) ([]bool, [][][]byte, transport.Stats) {
	t.Helper()
	blocks := batchBlocks(n, len(diffs), seed)
	return runParties(t, n, func(p int, conn transport.Conn) ([]bool, error) {
		out := make([]bool, len(diffs))
		for i := range diffs {
			var err error
			if out[i], err = refCompareParty(conn, uint64(diffs[i][p]), scalarTuple(blocks[p], i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// randomBatch draws k instances of n party differences and their plaintext
// comparison bits.
func randomBatch(rng *rand.Rand, n, k int) ([][]int64, []bool) {
	diffs := make([][]int64, k)
	want := make([]bool, k)
	for i := range diffs {
		diffs[i] = make([]int64, n)
		var sum int64
		for p := range diffs[i] {
			diffs[i][p] = rng.Int64N(1<<40) - (1 << 39)
			sum += diffs[i][p]
		}
		want[i] = sum < 0
	}
	return diffs, want
}

// TestKernelTranscriptEqualsReferenceAtOne: at k = 1, given the same tuples
// and inputs, every frame every party sends through the kernel is
// byte-identical to the scalar reference protocol's — same count, order,
// sizes and contents.
func TestKernelTranscriptEqualsReferenceAtOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	for _, n := range []int{2, 3, 5} {
		for trial := 0; trial < 8; trial++ {
			diffs, want := randomBatch(rng, n, 1)
			seed := uint64(100*n + trial)
			got, sent, st := runKernel(t, n, seed, diffs)
			ref, refSent, refSt := runReference(t, n, seed, diffs)
			if got[0] != want[0] || ref[0] != want[0] {
				t.Fatalf("n=%d trial %d: kernel %v, reference %v, plaintext %v", n, trial, got[0], ref[0], want[0])
			}
			if st != refSt {
				t.Fatalf("n=%d trial %d: transport stats %+v, reference %+v", n, trial, st, refSt)
			}
			for p := 0; p < n; p++ {
				if len(sent[p]) != len(refSent[p]) {
					t.Fatalf("n=%d party %d: %d frames, reference %d", n, p, len(sent[p]), len(refSent[p]))
				}
				for f := range sent[p] {
					if !bytes.Equal(sent[p][f], refSent[p][f]) {
						t.Fatalf("n=%d party %d frame %d: %x, reference %x", n, p, f, sent[p][f], refSent[p][f])
					}
				}
			}
		}
	}
}

// TestKernelMatchesReference: for full-word, partial-word, multi-word and
// ragged lane counts, the kernel's k result bits equal the reference's k
// scalar runs on the same tuples, and both equal plaintext — on random
// inputs and on the boundary sums 0, ±1 and ±2^40·n (reached with and
// without cancellation across parties).
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 22))
	for _, n := range []int{2, 3, 5} {
		big := int64(1) << 40
		boundary := [][]int64{
			spread(n, 0, 0), spread(n, 1, 0), spread(n, -1, 0),
			spread(n, 0, big), spread(n, 1, big), spread(n, -1, big),
			uniform(n, big), uniform(n, -big),
		}
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 129, 200} {
			random, _ := randomBatch(rng, n, k)
			edges := make([][]int64, k)
			for i := range edges {
				edges[i] = boundary[(i+k)%len(boundary)]
			}
			for _, diffs := range [][][]int64{random, edges} {
				seed := uint64(1000*n + k)
				got, _, _ := runKernel(t, n, seed, diffs)
				ref, _, _ := runReference(t, n, seed, diffs)
				for i, d := range diffs {
					var sum int64
					for _, v := range d {
						sum += v
					}
					if got[i] != ref[i] || got[i] != (sum < 0) {
						t.Fatalf("n=%d k=%d instance %d (%v): kernel %v, reference %v, plaintext %v",
							n, k, i, d, got[i], ref[i], sum < 0)
					}
				}
			}
		}
	}
}

// spread returns n party differences summing to sum, with ±mag cancelling
// between the first two parties.
func spread(n int, sum, mag int64) []int64 {
	d := make([]int64, n)
	d[0], d[1] = mag+sum, -mag
	return d
}

// uniform returns n party differences of v each (sum n·v).
func uniform(n int, v int64) []int64 {
	d := make([]int64, n)
	for p := range d {
		d[p] = v
	}
	return d
}
