package mpc

import (
	"errors"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
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
		for tr := range x.A {
			x.A[tr] ^= deal[p].A[tr]
			x.B[tr] ^= deal[p].B[tr]
			x.C[tr] ^= deal[p].C[tr]
		}
	}
	return x
}

// checkDeal asserts the dealer invariants on one deal (a block per party):
// in every lane the additive shares of R sum to the value whose bit b is the
// XOR of the parties' RBits[b], and every triple holds in every lane.
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
	for tr := range x.A {
		if x.C[tr] != x.A[tr]&x.B[tr] {
			t.Fatalf("triple %d violated: a=%x b=%x c=%x", tr, x.A[tr], x.B[tr], x.C[tr])
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
// vector is uniform — party 0's share is the secret XOR the rest, and every
// other share is a raw PRG word — so over 4,096 deals the bits of the
// coalition's XOR are set about half the time, whichever party is left out.
func TestDealerCoalitionViewIsUniform(t *testing.T) {
	const deals = 4096
	fields := []string{"RBits", "A", "B", "C"}
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, 61)
		ones := make([][4]int, n) // [party left out][field] set bits
		vectors := make([]int, 4) // [field] vectors per block
		for i := 0; i < deals; i++ {
			deal := d.CmpTuples()
			for out := range ones {
				x := combineBlocks(deal, out)
				for f, vecs := range [][]uint64{x.RBits[:], x.A[:], x.B[:], x.C[:]} {
					vectors[f] = len(vecs)
					for _, v := range vecs {
						ones[out][f] += bits.OnesCount64(v)
					}
				}
			}
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

// combinesFor counts the combine nodes of a binary reduction tree.
func combinesFor(leaves int) int {
	total := 0
	for leaves > 1 {
		total += leaves / 2
		leaves = leaves/2 + leaves%2
	}
	return total
}

// circuitLevels counts the rounds the borrow circuit needs.
func circuitLevels(leaves int) int {
	levels := 0
	for leaves > 1 {
		leaves = leaves/2 + leaves%2
		levels++
	}
	return levels
}

// TestCircuitSizeConstants pins the declared constants to the circuit they
// describe.
func TestCircuitSizeConstants(t *testing.T) {
	if TriplesPerCompare != 2*combinesFor(NumLeaves) || RoundsPerCompare != 2+circuitLevels(NumLeaves) {
		t.Fatalf("TriplesPerCompare %d / RoundsPerCompare %d do not match the circuit over %d leaves: %d / %d",
			TriplesPerCompare, RoundsPerCompare, NumLeaves, 2*combinesFor(NumLeaves), 2+circuitLevels(NumLeaves))
	}
	if combinesFor(63) != 62 {
		t.Fatalf("combinesFor(63) = %d, want 62", combinesFor(63))
	}
	if circuitLevels(63) != 6 {
		t.Fatalf("circuitLevels(63) = %d, want 6", circuitLevels(63))
	}
	// Fused masked opening + 6 circuit levels + result opening.
	if RoundsPerCompare != 8 {
		t.Fatalf("RoundsPerCompare = %d, want 8", RoundsPerCompare)
	}
	if TriplesPerCompare != 124 {
		t.Fatalf("TriplesPerCompare = %d, want 124", TriplesPerCompare)
	}
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

func TestCompareSums(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	less, err := e.CompareSums([]int64{10, 20, 30}, []int64{30, 20, 11})
	if err != nil {
		t.Fatal(err)
	}
	if !less {
		t.Fatal("60 < 61 should be true")
	}
	less, err = e.CompareSums([]int64{10, 20, 31}, []int64{30, 20, 11})
	if err != nil {
		t.Fatal(err)
	}
	if less {
		t.Fatal("61 < 61 should be false")
	}
	if _, err := e.CompareSums([]int64{1}, []int64{1, 2, 3}); err == nil {
		t.Fatal("mis-sized partials accepted")
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
	if ps.Bytes <= 0 || ps.SimNet <= 0 {
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

func TestCompareQuickProperty(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	f := func(a0, a1, a2, b0, b1, b2 int32) bool {
		a := []int64{int64(a0), int64(a1), int64(a2)}
		b := []int64{int64(b0), int64(b1), int64(b2)}
		got, err := e.CompareSums(a, b)
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
// legal shares still compare correctly afterwards.
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
			for _, eng := range []*Engine{e, twin} {
				got, err := eng.CompareBatch([][]int64{ok, neg})
				if err != nil {
					t.Fatal(err)
				}
				if got[0] || !got[1] {
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

func TestResetStats(t *testing.T) {
	e := newTestEngine(t, 2, ModeIdeal)
	e.Compare([]int64{-1, 0})
	if e.Stats().Compares != 1 {
		t.Fatal("comparison not counted")
	}
	e.ResetStats()
	if e.Stats() != (Stats{}) {
		t.Fatal("reset failed")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Compares: 1, Rounds: 9, Bytes: 100, Messages: 10, SimNet: 5}
	b := Stats{Compares: 2, Rounds: 18, Bytes: 200, Messages: 20, SimNet: 10}
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
