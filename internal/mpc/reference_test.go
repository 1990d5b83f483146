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
// form (truth table, then Möbius transform) over the group's secret bits,
// derives which wires to open and which products to read from that form
// alone, and packs its frames bit by bit. At k = 1 the two must produce
// byte-identical transcripts — which is also the proof that a party running
// the scalar protocol interoperates with one running the kernel.

// refFan is the reference's carry-group fan-in.
const refFan = 4

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

// leafOut is a level-1 group's plaintext (G, P) for the leaves' public bits
// c and secret r-bits r (bit i = leaf i).
func leafOut(size, c, r int) (byte, byte) {
	g, p := make([]byte, size), make([]byte, size)
	for i := range g {
		ci, ri := byte(c>>i&1), byte(r>>i&1)
		g[i], p[i] = (1^ci)&ri, 1^ci^ri
	}
	return refFold(g, p)
}

// wireOut is an opened group's plaintext (G, P) over its size inputs for
// opened values o and secret bits m, both indexed by slot (generate i at i,
// propagate i at refFan+i): wire s is o_s ⊕ m_s.
func wireOut(size, o, m int) (byte, byte) {
	g, p := make([]byte, size), make([]byte, size)
	for i := range g {
		g[i] = byte((o ^ m) >> i & 1)
		p[i] = byte((o ^ m) >> (refFan + i) & 1)
	}
	return refFold(g, p)
}

// refLayout numbers a group's dealt products: every subset of ≥ 2 secret
// bits whose ANF coefficient in a needed output is 1 for some public input,
// in ascending order of its bitmask.
func refLayout(nsec, npub int, needP bool, out func(pub, sec int) (byte, byte)) map[int]int {
	used := make([]bool, 1<<nsec)
	for pub := 0; pub < 1<<npub; pub++ {
		gs := refANF(nsec, func(sec int) byte { g, _ := out(pub, sec); return g })
		ps := refANF(nsec, func(sec int) byte { _, p := out(pub, sec); return p })
		for s := range used {
			used[s] = used[s] || gs[s] == 1 || needP && ps[s] == 1
		}
	}
	at := map[int]int{}
	for s, u := range used {
		if u && bits.OnesCount(uint(s)) >= 2 {
			at[s] = len(at)
		}
	}
	return at
}

// refGroup is one carry group as the reference lays it out.
type refGroup struct {
	in, size int
	needP    bool
	at       map[int]int // secret subset → offset among the group's products
	open     []int       // levels 2, 3: slots opened, ascending
	mask     int         // first mask
	prod     int         // first product
}

// refPlan lays out the circuit: 47 leaves, groups of refFan lowest first,
// masks and products numbered group by group.
func refPlan() [][]refGroup {
	type shape struct {
		size  int
		needP bool
	}
	leafAt := map[shape]map[int]int{}
	wireAt := map[shape]map[int]int{}
	var levels [][]refGroup
	masks, prods := 0, 0
	for inputs, level1 := K-1, true; inputs > 1; inputs, level1 = (inputs+refFan-1)/refFan, false {
		var level []refGroup
		for in := 0; in < inputs; in += refFan {
			grp := refGroup{in: in, size: min(refFan, inputs-in), needP: in > 0, mask: masks, prod: prods}
			key, size := shape{grp.size, grp.needP}, grp.size
			if level1 {
				if leafAt[key] == nil {
					leafAt[key] = refLayout(size, size, grp.needP, func(c, r int) (byte, byte) { return leafOut(size, c, r) })
				}
				grp.at = leafAt[key]
			} else {
				if wireAt[key] == nil {
					wireAt[key] = refLayout(2*refFan, 2*refFan, grp.needP, func(o, m int) (byte, byte) { return wireOut(size, o, m) })
				}
				grp.at = wireAt[key]
				var opened int
				for s := range grp.at {
					opened |= s
				}
				for slot := 0; slot < 2*refFan; slot++ {
					if opened>>slot&1 == 1 {
						grp.open = append(grp.open, slot)
					}
				}
			}
			masks += len(grp.open)
			prods += len(grp.at)
			level = append(level, grp)
		}
		levels = append(levels, level)
	}
	return levels
}

var refCircuit = refPlan()

// refShare returns this party's shares of a group's G and P: out gives them
// as a function of the group's secret bits for this instance's public
// values, share(S) this party's share of the AND of the secret subset S.
func refShare(nsec int, out func(sec int) (byte, byte), share func(S int) byte) (G, P byte) {
	gs := refANF(nsec, func(sec int) byte { g, _ := out(sec); return g })
	ps := refANF(nsec, func(sec int) byte { _, p := out(sec); return p })
	for s := range gs {
		if gs[s]|ps[s] == 1 {
			v := share(s)
			G ^= gs[s] & v
			P ^= ps[s] & v
		}
	}
	return G, P
}

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

	// Level 1: the secret bits are the group's r-bits.
	var gs, ps []byte
	for _, grp := range refCircuit[0] {
		cg := int(c >> uint(grp.in) & (1<<uint(grp.size) - 1))
		G, P := refShare(grp.size,
			func(r int) (byte, byte) { return leafOut(grp.size, cg, r) },
			func(S int) byte {
				switch bits.OnesCount(uint(S)) {
				case 0:
					return one
				case 1:
					return tup.RBits[grp.in+bits.TrailingZeros(uint(S))]
				}
				return tup.Prods[grp.prod+grp.at[S]]
			})
		gs, ps = append(gs, G), append(ps, P)
	}

	// Levels 2 and 3: open the wires under their masks, then fold.
	for _, level := range refCircuit[1:] {
		wire := func(grp refGroup, slot int) byte {
			if slot < refFan {
				return gs[grp.in+slot]
			}
			return ps[grp.in+slot-refFan]
		}
		var masked []byte
		for _, grp := range level {
			for i, slot := range grp.open {
				masked = append(masked, wire(grp, slot)^tup.Masks[grp.mask+i])
			}
		}
		frame := make([]byte, (len(masked)+7)/8)
		packBits(frame, masked)
		frames, err := broadcast(conn, frame)
		if err != nil {
			return false, err
		}
		var ng, np []byte
		j := 0
		for _, grp := range level {
			var o, isOpen int
			maskOf := map[int]byte{}
			for i, slot := range grp.open {
				var bit byte
				for q := 0; q < n; q++ {
					bit ^= unpackBit(frames[q], j)
				}
				j++
				o |= int(bit) << slot
				isOpen |= 1 << slot
				maskOf[slot] = tup.Masks[grp.mask+i]
			}
			G, P := refShare(2*refFan,
				func(m int) (byte, byte) { return wireOut(grp.size, o, m) },
				func(S int) byte {
					switch bits.OnesCount(uint(S)) {
					case 0:
						return one
					case 1:
						slot := bits.TrailingZeros(uint(S))
						if isOpen>>slot&1 == 1 {
							return maskOf[slot]
						}
						return wire(grp, slot) // an unopened wire is its own secret
					}
					return tup.Prods[grp.prod+grp.at[S]]
				})
			ng, np = append(ng, G), append(np, P)
		}
		gs, ps = ng, np
	}

	resShare := tup.RBits[K-1] ^ gs[0] ^ one&byte(c>>(K-1))
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
