package mpc

import (
	"math/rand/v2"
	"runtime/debug"
	"testing"
)

func TestCompareBatchMatchesPlaintext(t *testing.T) {
	for _, mode := range []Mode{ModeIdeal, ModeProtocol} {
		for _, n := range []int{2, 3, 5} {
			e, err := NewEngine(Params{Parties: n, Mode: mode, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 7))
			for _, k := range []int{1, 2, 3, 7, 16, 33} {
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
				got, err := e.CompareBatch(diffs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("mode %v n=%d k=%d instance %d: got %v want %v",
							mode, n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestCompareBatchEdgeCases(t *testing.T) {
	e, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.CompareBatch(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	cases := [][]int64{
		{0, 0, 0},                            // equal -> false (strict)
		{-1, 0, 0},                           // barely less
		{1, 0, 0},                            // barely greater
		{1 << 44, -(1 << 44), -1},            // cancellation
		{-(1 << 45), 1 << 44, (1 << 44) - 1}, // large magnitudes, sum -1
	}
	got, err := e.CompareBatch(cases)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("case %d: got %v want %v", i, got[i], want[i])
		}
	}
	if _, err := e.CompareBatch([][]int64{{1, 2}}); err == nil {
		t.Fatal("mis-sized instance accepted")
	}
}

func TestCompareBatchRoundEconomy(t *testing.T) {
	// The whole point: a k-batch pays RoundsPerCompare rounds once, while k
	// sequential comparisons pay it k times. Bytes stay roughly linear.
	e, err := NewEngine(Params{Parties: 3, Mode: ModeIdeal, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	diffs := make([][]int64, k)
	for i := range diffs {
		diffs[i] = []int64{int64(i) - 8, 1, 1}
	}
	if _, err := e.CompareBatch(diffs); err != nil {
		t.Fatal(err)
	}
	batchStats := e.Stats()
	e.ResetStats()
	for _, d := range diffs {
		if _, err := e.Compare(d); err != nil {
			t.Fatal(err)
		}
	}
	seqStats := e.Stats()
	if batchStats.Compares != seqStats.Compares {
		t.Fatalf("comparison counts differ: %d vs %d", batchStats.Compares, seqStats.Compares)
	}
	if batchStats.Rounds*k != seqStats.Rounds {
		t.Fatalf("batch rounds %d, sequential %d (want factor %d)",
			batchStats.Rounds, seqStats.Rounds, k)
	}
	if batchStats.SimNet >= seqStats.SimNet/4 {
		t.Fatalf("batching should slash simulated network time: %v vs %v",
			batchStats.SimNet, seqStats.SimNet)
	}
	// Bytes within 2x of sequential (framing overhead shrinks, packing helps).
	if batchStats.Bytes > seqStats.Bytes {
		t.Fatalf("batch bytes %d exceed sequential %d", batchStats.Bytes, seqStats.Bytes)
	}
}

func TestCompareBatchIdealAccountingMatchesProtocol(t *testing.T) {
	mk := func(mode Mode) Stats {
		e, err := NewEngine(Params{Parties: 3, Mode: mode, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		diffs := [][]int64{{-5, 2, 2}, {7, -3, -3}, {1, 1, 1}}
		if _, err := e.CompareBatch(diffs); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	if a, b := mk(ModeIdeal), mk(ModeProtocol); a != b {
		t.Fatalf("batch stats diverge:\nideal:    %+v\nprotocol: %+v", a, b)
	}
}

// TestCompareIsCompareBatchOfOne: Compare(d) and CompareBatch of one are the
// same operation — equal result and equal Stats delta — in both modes.
func TestCompareIsCompareBatchOfOne(t *testing.T) {
	for _, mode := range []Mode{ModeIdeal, ModeProtocol} {
		e, err := NewEngine(Params{Parties: 3, Mode: mode, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, 3))
		for trial := 0; trial < 30; trial++ {
			d := []int64{rng.Int64N(1001) - 500, rng.Int64N(1001) - 500, rng.Int64N(1001) - 500}
			s0 := e.Stats()
			single, err := e.Compare(d)
			if err != nil {
				t.Fatal(err)
			}
			s1 := e.Stats()
			batch, err := e.CompareBatch([][]int64{d})
			if err != nil {
				t.Fatal(err)
			}
			s2 := e.Stats()
			if single != batch[0] {
				t.Fatalf("mode %v trial %d: single %v != batch-of-one %v", mode, trial, single, batch[0])
			}
			if ds, db := s1.Sub(s0), s2.Sub(s1); ds != db {
				t.Fatalf("mode %v trial %d: Compare cost %+v, CompareBatch-of-one cost %+v", mode, trial, ds, db)
			}
		}
		// 60 compares of 3 parties: every round is 3·2 point-to-point messages.
		if bytes, rounds, simNet := e.PerCompareCost(); e.Stats() != (Stats{
			Compares: 60, Rounds: 60 * int64(rounds), Bytes: 60 * bytes,
			Messages: 60 * 3 * 2 * int64(rounds), SimNet: 60 * simNet,
		}) {
			t.Fatalf("mode %v: 60 single compares cost %+v, PerCompareCost (%d B, %d rounds, %v)",
				mode, e.Stats(), bytes, rounds, simNet)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCompareAllocBudget bounds what one protocol instance allocates over the
// in-process transport. The randomness of a batch word is one allocation (the
// deal's n blocks), so a lone comparison and a full 64-lane batch cost the
// same handful of frames, channel messages and goroutines.
func TestCompareAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	e := newTestEngine(t, 3, ModeProtocol)
	defer e.Close()
	one, _ := randomBatch(rand.New(rand.NewPCG(9, 9)), 3, 1)
	batch, _ := randomBatch(rand.New(rand.NewPCG(9, 10)), 3, 64)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Compare", func() error { _, err := e.Compare(one[0]); return err }},
		{"CompareBatch(64)", func() error { _, err := e.CompareBatch(batch); return err }},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if rerr := tc.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 200 {
			t.Errorf("%s: %.0f allocations per run, budget 200", tc.name, allocs)
		}
	}
}
