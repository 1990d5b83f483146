package mpc

import "testing"

// FuzzCompareProtocol cross-checks the full MPC protocol against plaintext
// on fuzzed inputs (within the documented magnitude bound).
func FuzzCompareProtocol(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(-1), int64(0), int64(0))
	f.Add(int64(1<<40), int64(-(1 << 40)), int64(1))
	f.Add(int64(-123456789), int64(987654321), int64(-864197532))
	eng, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	clamp := func(v int64) int64 {
		const bound = MaxMagnitude / 4
		if v > bound {
			return bound
		}
		if v < -bound {
			return -bound
		}
		return v
	}
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		diffs := []int64{clamp(a), clamp(b), clamp(c)}
		var sum int64
		for _, d := range diffs {
			sum += d
		}
		got, err := eng.Compare(diffs)
		if err != nil {
			t.Fatal(err)
		}
		if got != (sum < 0) {
			t.Fatalf("Compare(%v) = %v, plaintext %v", diffs, got, sum < 0)
		}
	})
}

// FuzzShareAdditive checks reconstruction for arbitrary secrets and party
// counts.
func FuzzShareAdditive(f *testing.F) {
	f.Add(uint64(0), uint8(2))
	f.Add(^uint64(0), uint8(7))
	f.Fuzz(func(t *testing.T, secret uint64, nRaw uint8) {
		n := 2 + int(nRaw%15)
		rng := testRNG(uint64(nRaw) + 1)
		shares := shareAdditive(rng, secret, n)
		if reconstructAdditive(shares) != secret {
			t.Fatalf("reconstruction failed for %d/%d", secret, n)
		}
	})
}
