package mpc

import (
	"errors"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^77))
}

func TestShareAdditiveRoundTrip(t *testing.T) {
	rng := testRNG(1)
	f := func(secret uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%7)
		shares := shareAdditive(rng, secret, n)
		if len(shares) != n {
			return false
		}
		return reconstructAdditive(shares) == secret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShareAdditiveSharesVary(t *testing.T) {
	rng := testRNG(2)
	a := shareAdditive(rng, 42, 3)
	b := shareAdditive(rng, 42, 3)
	if a[0] == b[0] && a[1] == b[1] && a[2] == b[2] {
		t.Fatal("two sharings of the same secret produced identical shares")
	}
}

func TestShareBitRoundTrip(t *testing.T) {
	rng := testRNG(3)
	for n := 2; n <= 6; n++ {
		for bit := byte(0); bit <= 1; bit++ {
			for i := 0; i < 50; i++ {
				shares := shareBit(rng, bit, n)
				if got := reconstructBit(shares); got != bit {
					t.Fatalf("n=%d bit=%d reconstructed %d", n, bit, got)
				}
			}
		}
	}
}

func TestShareUniformity(t *testing.T) {
	// Any n-1 additive shares of a fixed secret must look uniform: count
	// high-bit frequency of the non-constant shares over many sharings.
	rng := testRNG(4)
	const trials = 4000
	ones := 0
	for i := 0; i < trials; i++ {
		shares := shareAdditive(rng, 12345, 3)
		if shares[1]>>63 == 1 {
			ones++
		}
	}
	if ones < trials/2-200 || ones > trials/2+200 {
		t.Fatalf("share high bit frequency %d/%d far from uniform", ones, trials)
	}
}

func TestPackUnpackBits(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	buf := make([]byte, (len(bits)+7)/8)
	packBits(buf, bits)
	for i, b := range bits {
		if got := unpackBit(buf, i); got != b {
			t.Fatalf("bit %d: got %d want %d", i, got, b)
		}
	}
}

// combineBlocks recombines a deal's shares, leaving out party skip (−1: none):
// R lane-wise by addition, the bit vectors by XOR.
func combineBlocks(deal []TupleBlock, skip int) TupleBlock {
	var x TupleBlock
	for p := range deal {
		if p == skip {
			continue
		}
		for i := range x.R {
			x.R[i] += deal[p].R[i]
		}
		for b := range x.RBits {
			x.RBits[b] ^= deal[p].RBits[b]
		}
		for j := range x.Masks {
			x.Masks[j] ^= deal[p].Masks[j]
		}
		for i := range x.Prods {
			x.Prods[i] ^= deal[p].Prods[i]
		}
	}
	return x
}

// checkDeal asserts the dealer invariants on one deal (a block per party):
// in every lane the additive shares of R sum to the value whose bit b is the
// XOR of the parties' RBits[b], and every dealt subset product is, in every
// lane, the AND of its reconstructed factors.
func checkDeal(t *testing.T, deal []TupleBlock) {
	t.Helper()
	x := combineBlocks(deal, -1)
	for i, r := range x.R {
		for b := range x.RBits {
			if x.RBits[b]>>uint(i)&1 != r>>uint(b)&1 {
				t.Fatalf("lane %d: R bit %d inconsistent with additive sharing", i, b)
			}
		}
	}
	for i, factors := range productFactors {
		want := ^uint64(0)
		for _, f := range factors {
			if f < K {
				want &= x.RBits[f]
			} else {
				want &= x.Masks[f-K]
			}
		}
		if len(factors) < 2 || x.Prods[i] != want {
			t.Fatalf("product %d of %v: %x, AND of its factors %x", i, factors, x.Prods[i], want)
		}
	}
}

// TestDealerBlocksReconstruct: ten consecutive deals — the blocks of a 1-, a
// 2-, a 3- and a 4-word batch — each reconstruct, which is the invariant the
// kernel relies on when it indexes blocks in place.
func TestDealerBlocksReconstruct(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, 99)
		for i := 0; i < 1+2+3+4; i++ {
			deal := d.CmpTuples()
			if len(deal) != n {
				t.Fatalf("n=%d: got %d blocks", n, len(deal))
			}
			checkDeal(t, deal)
		}
	}
}

// TestDealerCoalitionViewIsUniform: what any n−1 parties hold of a share
// vector is uniform — party 0's share is the secret minus (R) or XOR (the
// bit vectors) the rest, and every other share is a raw PRG word — so over
// 4,096 deals the bits of the coalition's sum or XOR are set about half the
// time, whichever party is left out, for R, the r-bits, the masks and the
// subset products alike (a product of eight uniform bits is set a 256th of
// the time; its shares must not be). A block carries all 918 words: 64 R
// lanes, the 48 r-bits of the ring, 14 masks and 792 products.
func TestDealerCoalitionViewIsUniform(t *testing.T) {
	const deals = 4096
	fields := []string{"R", "RBits", "Masks", "Prods"}
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, 61)
		ones := make([][4]int, n) // [party left out][field] set bits
		var vectors [4]int        // [field] words per block
		for i := 0; i < deals; i++ {
			deal := d.CmpTuples()
			for out := range ones {
				x := combineBlocks(deal, out)
				for f, vecs := range [][]uint64{x.R[:], x.RBits[:], x.Masks[:], x.Prods[:]} {
					vectors[f] = len(vecs)
					for _, v := range vecs {
						ones[out][f] += bits.OnesCount64(v)
					}
				}
			}
		}
		if vectors != [4]int{64, 48, 14, 792} || int(unsafe.Sizeof(TupleBlock{})) != 8*918 {
			t.Fatalf("n=%d: a block holds %v R, RBits, Masks, Prods words (%d B), want 64, 48, 14, 792 (918 words)",
				n, vectors, unsafe.Sizeof(TupleBlock{}))
		}
		for out := range ones {
			for f, name := range fields {
				total := float64(64 * vectors[f] * deals)
				if dev := math.Abs(float64(ones[out][f]) - total/2); dev > 4*math.Sqrt(total)/2 {
					t.Fatalf("n=%d without party %d: %s has %d of %.0f bits set, beyond 4σ of half",
						n, out, name, ones[out][f], total)
				}
			}
		}
	}
}

// TestDealOverwritesEveryField: the engine redeals one slab in place, so a
// deal into blocks that hold an earlier deal, or any garbage, must equal the
// same dealer stream's deal into fresh memory, word for word, and
// reconstruct.
func TestDealOverwritesEveryField(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		slab := make([]TupleBlock, n)
		inPlace, fresh := NewDealer(n, 5), NewDealer(n, 5)
		for i := 0; i < 3; i++ {
			if i == 0 {
				for p := range slab {
					b := &slab[p]
					for _, vec := range [][]uint64{b.R[:], b.RBits[:], b.Masks[:], b.Prods[:]} {
						for j := range vec {
							vec[j] = ^uint64(0)
						}
					}
				}
			}
			inPlace.deal(slab)
			if want := fresh.CmpTuples(); !reflect.DeepEqual(slab, want) {
				t.Fatalf("n=%d deal %d: an in-place deal differs from a fresh one", n, i)
			}
			checkDeal(t, slab)
		}
	}
}

func TestDealerDeterministic(t *testing.T) {
	a := NewDealer(3, 7).CmpTuples()
	b := NewDealer(3, 7).CmpTuples()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different blocks")
	}
	c := NewDealer(3, 8).CmpTuples()
	if a[0].R == c[0].R || a[1].RBits == c[1].RBits {
		t.Fatal("different seeds produced identical blocks")
	}
}

// carryDepth counts the levels of the reduction over leaves with the
// circuit's per-level fan-ins.
func carryDepth(leaves int) int {
	levels := 0
	for ; leaves > 1; levels++ {
		fanIn := levelFanIn[levels]
		leaves = (leaves + fanIn - 1) / fanIn
	}
	return levels
}

// termSubsets counts the subsets of at least two wires lying inside one
// product term of a carry group over size inputs — wire i generate x_i,
// wire maxFanIn+i propagate y_i, propagates offset by the widest group so
// that no two wires share a bit —, its P term included when withP.
func termSubsets(size int, withP bool) int {
	var terms []int
	for i := 0; i < size; i++ { // x_i · y_{i+1} ⋯ y_{size−1}
		t := 1 << i
		for j := i + 1; j < size; j++ {
			t |= 1 << (maxFanIn + j)
		}
		terms = append(terms, t)
	}
	if withP {
		terms = append(terms, (1<<size-1)<<maxFanIn)
	}
	seen := map[int]bool{}
	for _, t := range terms {
		for sub := t; sub > 0; sub = (sub - 1) & t {
			if bits.OnesCount(uint(sub)) >= 2 {
				seen[sub] = true
			}
		}
	}
	return len(seen)
}

// planSize counts the masks and products of a two-level plan whose first
// level is dealt with fan-in leafFan and whose second folds its groups in
// one opened group: at level 1 a leaf's generate and propagate share one
// r-bit, so a group of s leaves takes every subset of ≥ 2 of them; the
// opened group takes the subsets inside one term and opens every wire but
// its top generate and its bottom propagate.
func planSize(leafFan int) (masks, products int) {
	groups := 0
	for leaf := 0; leaf < NumLeaves; leaf += leafFan {
		size := min(leafFan, NumLeaves-leaf)
		products += 1<<size - size - 1
		groups++
	}
	return 2*groups - 2, products + termSubsets(groups, false)
}

// TestCircuitSizeConstants derives the declared constants from the circuit
// they describe: depth and rounds from the fan-ins, masks from the wires that
// enter a product (every wire of the opened group but its top generate and
// its bottom propagate), products from the subsets of ≥ 2 secret bits inside
// one term.
func TestCircuitSizeConstants(t *testing.T) {
	levels := carryDepth(NumLeaves)
	if carryLevels != levels || len(circuit) != levels || levels != 2 {
		t.Fatalf("carry depth over %d leaves: %d, carryLevels %d, circuit %d, want 2", NumLeaves, levels, carryLevels, len(circuit))
	}
	// Fused masked opening, the opened level (the first is dealt), result
	// opening.
	if RoundsPerCompare != 1+(levels-1)+1 || RoundsPerCompare != 3 {
		t.Fatalf("RoundsPerCompare = %d, the circuit over %d levels needs %d, want 3", RoundsPerCompare, levels, 1+(levels-1)+1)
	}
	masks, products := planSize(levelFanIn[0])
	if len(circuit[0]) != levelFanIn[1] {
		t.Fatalf("level 1 has %d groups, level 2's fan-in is %d", len(circuit[0]), levelFanIn[1])
	}
	if MasksPerCompare != masks {
		t.Fatalf("MasksPerCompare = %d, the circuit opens %d wires", MasksPerCompare, masks)
	}
	if ProductsPerCompare != products {
		t.Fatalf("ProductsPerCompare = %d, the circuit expands into %d", ProductsPerCompare, products)
	}
	if MasksPerCompare != 14 || ProductsPerCompare != 792 {
		t.Fatalf("%d masks / %d products, want 14 / 792", MasksPerCompare, ProductsPerCompare)
	}
	if termSubsets(8, false) != 367 || termSubsets(4, true) != 22 {
		t.Fatalf("term subsets: %d of an eight-input group without P, %d of a four-input one with P, want 367 / 22",
			termSubsets(8, false), termSubsets(4, true))
	}
	// The other two-level plan, fan-in 7 then 7, opens fewer wires but
	// deals more products.
	if m, p := planSize(7); m != 12 || p != 923 {
		t.Fatalf("the 7→7 plan: %d masks / %d products, want 12 / 923", m, p)
	}
	if maxGroupProducts != termSubsets(8, false) {
		t.Fatalf("maxGroupProducts = %d, the widest group has %d", maxGroupProducts, termSubsets(8, false))
	}
}

// TestPlanIndicesFit: every share a group reads lies inside the shares eval
// gathers for it, the widest group reads up to index 1 + 16 + 366 = 383 (a
// wrap at 8 bits would alias it), and every dealer step reads what the
// dealer has dealt before it, so no plan index could have wrapped when it was
// stored.
func TestPlanIndicesFit(t *testing.T) {
	top := 0
	for _, level := range circuit {
		for _, grp := range level {
			var reads []uint16
			for _, rd := range grp.gReads {
				for _, r := range rd {
					reads = append(reads, r[0], r[1])
				}
			}
			for _, at := range append(reads, grp.pReads...) {
				if int(at) >= prodShare+grp.nprod {
					t.Fatalf("group at %d reads share %d of %d", grp.in, at, prodShare+grp.nprod)
				}
				top = max(top, int(at))
			}
		}
	}
	if top != 383 || numShares != 384 {
		t.Fatalf("the widest share index is %d of %d, want 383 of 384", top, numShares)
	}
	for i, st := range productSteps {
		if int(st[0]) >= K+MasksPerCompare+i || int(st[1]) >= K+MasksPerCompare {
			t.Fatalf("product %d steps from %v", i, st)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("index16(65536) did not panic")
		}
	}()
	index16(1 << 16)
}

func newTestEngine(t *testing.T, n int, mode Mode) *Engine {
	t.Helper()
	e, err := NewEngine(Params{Parties: n, Mode: mode, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProtocolCompareBasic(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	cases := []struct {
		diffs []int64
		want  bool
	}{
		{[]int64{-1, 0, 0}, true},
		{[]int64{1, 0, 0}, false},
		{[]int64{0, 0, 0}, false}, // strict comparison: equal is not less
		{[]int64{-100, 50, 49}, true},
		{[]int64{-100, 50, 51}, false},
		{[]int64{1 << 40, -(1 << 40), -1}, true},
		{[]int64{1 << 40, -(1 << 40), 1}, false},
		{[]int64{-(1 << 44), 1 << 40, 1 << 40}, true},
	}
	for _, c := range cases {
		got, err := e.Compare(c.diffs)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Compare(%v) = %v, want %v", c.diffs, got, c.want)
		}
	}
}

func TestProtocolCompareRandomAllPartyCounts(t *testing.T) {
	for n := 2; n <= 5; n++ {
		e := newTestEngine(t, n, ModeProtocol)
		rng := testRNG(uint64(n) * 31)
		for trial := 0; trial < 60; trial++ {
			diffs := make([]int64, n)
			var sum int64
			for p := range diffs {
				diffs[p] = rng.Int64N(1<<42) - (1 << 41)
				sum += diffs[p]
			}
			got, err := e.Compare(diffs)
			if err != nil {
				t.Fatal(err)
			}
			if got != (sum < 0) {
				t.Fatalf("n=%d trial %d: Compare(%v) = %v, sum=%d", n, trial, diffs, got, sum)
			}
		}
	}
}

func TestIdealMatchesProtocol(t *testing.T) {
	proto := newTestEngine(t, 3, ModeProtocol)
	ideal := newTestEngine(t, 3, ModeIdeal)
	rng := testRNG(5)
	for trial := 0; trial < 100; trial++ {
		diffs := []int64{
			rng.Int64N(1<<40) - (1 << 39),
			rng.Int64N(1<<40) - (1 << 39),
			rng.Int64N(1<<40) - (1 << 39),
		}
		a, err := proto.Compare(diffs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ideal.Compare(diffs)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: protocol=%v ideal=%v for %v", trial, a, b, diffs)
		}
	}
}

func TestIdealAccountingMatchesProtocol(t *testing.T) {
	// The whole point of ModeIdeal: identical cost counters without traffic.
	proto := newTestEngine(t, 4, ModeProtocol)
	ideal := newTestEngine(t, 4, ModeIdeal)
	for i := 0; i < 5; i++ {
		if _, err := proto.Compare([]int64{-3, 1, 1, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := ideal.Compare([]int64{-3, 1, 1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	ps, is := proto.Stats(), ideal.Stats()
	if ps != is {
		t.Fatalf("stats diverge:\nprotocol: %+v\nideal:    %+v", ps, is)
	}
	if ps.Compares != 5 || ps.Rounds != 5*int64(RoundsPerCompare) {
		t.Fatalf("unexpected counts: %+v", ps)
	}
	if ps.Bytes <= 0 || ps.Messages <= 0 {
		t.Fatalf("cost counters empty: %+v", ps)
	}
}

func TestStatsScaleWithParties(t *testing.T) {
	e2 := newTestEngine(t, 2, ModeIdeal)
	e6 := newTestEngine(t, 6, ModeIdeal)
	e2.Compare([]int64{-1, 0})
	e6.Compare([]int64{-1, 0, 0, 0, 0, 0})
	b2 := e2.Stats().Bytes
	b6 := e6.Stats().Bytes
	// Total bytes grow ~quadratically in parties (every party talks to every
	// other); at minimum they must strictly grow.
	if b6 <= b2 {
		t.Fatalf("bytes did not grow with parties: n=2 %d, n=6 %d", b2, b6)
	}
}

func TestEngineDeterministicResults(t *testing.T) {
	// Same seed, same inputs: protocol-mode comparisons are reproducible.
	e1 := newTestEngine(t, 3, ModeProtocol)
	e2 := newTestEngine(t, 3, ModeProtocol)
	rng := testRNG(6)
	for i := 0; i < 30; i++ {
		diffs := []int64{rng.Int64N(2001) - 1000, rng.Int64N(2001) - 1000, rng.Int64N(2001) - 1000}
		a, err1 := e1.Compare(diffs)
		b, err2 := e2.Compare(diffs)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("engines with same seed disagree on %v", diffs)
		}
	}
}

func TestEngineForkIndependence(t *testing.T) {
	root, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := root.Fork(), root.Fork()
	defer f1.Close()
	defer f2.Close()

	// Stats are per-engine.
	if _, err := f1.Compare([]int64{-1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if f1.Stats().Compares != 1 || f2.Stats().Compares != 0 || root.Stats().Compares != 0 {
		t.Fatalf("stats leaked across forks: root=%d f1=%d f2=%d",
			root.Stats().Compares, f1.Stats().Compares, f2.Stats().Compares)
	}
}

func TestEngineForksConcurrent(t *testing.T) {
	// Many forks run full protocol comparisons in parallel; all must agree
	// with the plaintext sign. This is the core guarantee behind concurrent
	// query sessions.
	root, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := root.Fork()
			defer e.Close()
			for i := 0; i < 25; i++ {
				d := int64((w*25+i)%7) - 3
				got, err := e.Compare([]int64{d, int64(w), -int64(w)})
				if err != nil {
					t.Error(err)
					return
				}
				if got != (d < 0) {
					t.Errorf("fork %d: Compare sign wrong for d=%d", w, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCompareQuickProperty(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	f := func(a0, a1, a2, b0, b1, b2 int32) bool {
		a := []int64{int64(a0), int64(a1), int64(a2)}
		b := []int64{int64(b0), int64(b1), int64(b2)}
		got, err := e.Compare([]int64{a[0] - b[0], a[1] - b[1], a[2] - b[2]})
		if err != nil {
			return false
		}
		return got == (a[0]+a[1]+a[2] < b[0]+b[1]+b[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	e := newTestEngine(t, 3, ModeIdeal)
	if _, err := e.Compare([]int64{1, 2}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := NewEngine(Params{Parties: 1}); err == nil {
		t.Fatal("single-party engine accepted")
	}
}

// TestMagnitudeBoundEnforced: at the boundary, in both modes, one share at
// MaxMagnitude/n refuses the whole batch with ErrMagnitude before anything
// is spent — no stats, no dealer randomness, no poisoning — and the largest
// legal shares still compare correctly afterwards: all of one sign (|D| just
// under MaxMagnitude, the sign bit K−1 of the ring) and cancelling to 0 and
// −1.
func TestMagnitudeBoundEnforced(t *testing.T) {
	for _, mode := range []Mode{ModeIdeal, ModeProtocol} {
		for _, n := range []int{2, 3, 5} {
			e := newTestEngine(t, n, mode)
			twin := newTestEngine(t, n, mode) // same seed, never sees a refused batch
			limit := MaxMagnitude / int64(n)
			ok := make([]int64, n)
			for p := range ok {
				ok[p] = limit - 1
			}
			for _, bad := range []int64{limit, -limit, limit + 1} {
				batch := [][]int64{ok, append(append([]int64{}, ok[:n-1]...), bad)}
				if _, err := e.CompareBatch(batch); !errors.Is(err, ErrMagnitude) {
					t.Fatalf("mode %d n=%d: share %d: err = %v, want ErrMagnitude", mode, n, bad, err)
				}
			}
			if e.Poisoned() || e.Stats() != (Stats{}) {
				t.Fatalf("mode %d n=%d: refused batches left poisoned=%v stats=%+v", mode, n, e.Poisoned(), e.Stats())
			}
			neg := make([]int64, n)
			for p := range neg {
				neg[p] = -(limit - 1)
			}
			zero, minus := make([]int64, n), make([]int64, n)
			zero[0], zero[1] = limit-1, -(limit - 1)
			minus[0], minus[1] = limit-2, -(limit - 1)
			for _, eng := range []*Engine{e, twin} {
				got, err := eng.CompareBatch([][]int64{ok, neg, zero, minus})
				if err != nil {
					t.Fatal(err)
				}
				if got[0] || !got[1] || got[2] || !got[3] {
					t.Fatalf("mode %d n=%d: boundary shares compared wrongly: %v", mode, n, got)
				}
			}
			// Same dealer position as the twin: the refusals drew no tuples.
			if a, b := e.dealer.CmpTuples(), twin.dealer.CmpTuples(); !reflect.DeepEqual(a, b) {
				t.Fatalf("mode %d n=%d: refused batches consumed dealer randomness", mode, n)
			}
		}
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Compares: 1, Rounds: 9, Bytes: 100, Messages: 10}
	b := Stats{Compares: 2, Rounds: 18, Bytes: 200, Messages: 20}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.Compares != 3 || acc.Bytes != 300 {
		t.Fatalf("Add wrong: %+v", acc)
	}
	d := b.Sub(a)
	if d != a {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

// TestNetworkModelPredict: the paper's R·(L + S/B) over measured counters,
// S being one party's share of the bytes.
func TestNetworkModelPredict(t *testing.T) {
	m := NetworkModel{Latency: time.Millisecond, Bandwidth: 1000}
	st := Stats{Compares: 64, Rounds: 16, Bytes: 3000, Messages: 96}
	if got, want := m.Predict(st, 3), 16*time.Millisecond+time.Second; got != want {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
	if got := m.Predict(Stats{}, 3); got != 0 {
		t.Fatalf("Predict of nothing = %v", got)
	}
}
