package mpc

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The byte-per-bit scalar comparison protocol, kept as a test-only reference
// for the word-lane kernel (RunCompareBatchParty): it was the production
// single-comparison path before the kernels were unified, it shares no
// circuit or codec code with the kernel, and at k = 1 the two must produce
// byte-identical transcripts — which is also the proof that a party running
// the old scalar protocol interoperates with one running the kernel.

// bitTriple is one party's share of a Beaver bit triple (a, b, c) with
// c = a AND b jointly; only the low bit of each byte is meaningful.
type bitTriple struct {
	A, B, C byte
}

// refTuple is the reference protocol's byte-per-bit view of one party's
// randomness for a single comparison.
type refTuple struct {
	RShare  uint64
	RBits   [K]byte
	Triples []bitTriple
}

// scalarTuple reads instance i's randomness — lane i%64 of blocks[i/64] —
// out of one party's blocks.
func scalarTuple(blocks []*TupleBlock, i int) *refTuple {
	blk, lane := blocks[i>>6], uint(i&63)
	tup := &refTuple{RShare: blk.R[lane], Triples: make([]bitTriple, TriplesPerCompare)}
	for b := range tup.RBits {
		tup.RBits[b] = byte(blk.RBits[b] >> lane & 1)
	}
	for t := range tup.Triples {
		tup.Triples[t] = bitTriple{
			A: byte(blk.A[t] >> lane & 1),
			B: byte(blk.B[t] >> lane & 1),
			C: byte(blk.C[t] >> lane & 1),
		}
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

// refCompareParty runs one party's role of a single comparison: one bit per
// byte for every circuit wire, global bit-packing per frame.
func refCompareParty(conn transport.Conn, diff uint64, tup *refTuple) (bool, error) {
	me, n := conn.Party(), conn.N()

	var buf8 [8]byte
	putU64(buf8[:], diff+tup.RShare)
	opened, err := broadcast(conn, buf8[:])
	if err != nil {
		return false, err
	}
	c := uint64(0)
	for q := 0; q < n; q++ {
		c += getU64(opened[q])
	}

	g := make([]byte, NumLeaves)
	p := make([]byte, NumLeaves)
	for i := 0; i < NumLeaves; i++ {
		ci := byte(c>>uint(i)) & 1
		ri := tup.RBits[i]
		if ci == 0 {
			g[i] = ri
		}
		p[i] = ri
		if me == 0 {
			p[i] ^= 1 ^ ci
		}
	}

	triples := tup.Triples
	for len(g) > 1 {
		half := len(g) / 2
		xs := make([]byte, 0, 2*half)
		ys := make([]byte, 0, 2*half)
		for k := 0; k < half; k++ {
			lo, hi := 2*k, 2*k+1
			xs = append(xs, p[hi], p[hi])
			ys = append(ys, g[lo], p[lo])
		}
		if len(triples) < 2*half {
			return false, fmt.Errorf("mpc: out of bit triples")
		}
		zs, err := refAndBatch(conn, me, xs, ys, triples[:2*half])
		if err != nil {
			return false, err
		}
		triples = triples[2*half:]
		ng := make([]byte, 0, half+1)
		np := make([]byte, 0, half+1)
		for k := 0; k < half; k++ {
			ng = append(ng, g[2*k+1]^zs[2*k])
			np = append(np, zs[2*k+1])
		}
		if len(g)%2 == 1 {
			ng = append(ng, g[len(g)-1])
			np = append(np, p[len(p)-1])
		}
		g, p = ng, np
	}

	resShare := tup.RBits[K-1] ^ g[0]
	if me == 0 {
		resShare ^= byte(c>>(K-1)) & 1
	}
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

// refAndBatch evaluates z_i = x_i ∧ y_i over XOR-shared bits with one Beaver
// triple each and a single opening round.
func refAndBatch(conn transport.Conn, me int, xs, ys []byte, trip []bitTriple) ([]byte, error) {
	k := len(xs)
	masked := make([]byte, 2*k)
	for i := 0; i < k; i++ {
		masked[2*i] = (xs[i] ^ trip[i].A) & 1
		masked[2*i+1] = (ys[i] ^ trip[i].B) & 1
	}
	frame := make([]byte, (2*k+7)/8)
	packBits(frame, masked)
	opened, err := broadcast(conn, frame)
	if err != nil {
		return nil, err
	}
	zs := make([]byte, k)
	for i := 0; i < k; i++ {
		var e, f byte
		for q := 0; q < conn.N(); q++ {
			e ^= unpackBit(opened[q], 2*i)
			f ^= unpackBit(opened[q], 2*i+1)
		}
		z := trip[i].C ^ (f & trip[i].A) ^ (e & trip[i].B)
		if me == 0 {
			z ^= e & f
		}
		zs[i] = z & 1
	}
	return zs, nil
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
