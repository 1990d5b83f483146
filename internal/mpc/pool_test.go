package mpc

import (
	"sync"
	"testing"
	"time"
)

// waitForBuffer polls until the pool has buffered at least want deals.
func waitForBuffer(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Buffered < want {
		if time.Now().After(deadline) {
			t.Fatalf("pool never buffered %d deals (stats %+v)", want, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolReplenishes(t *testing.T) {
	p := NewPool(3, 1000, 2, 11) // capacity in comparisons: ⌈1000/64⌉ = 16 deals
	defer p.Close()
	waitForBuffer(t, p, 16)
	st := p.Stats()
	if st.Produced < 16 {
		t.Fatalf("produced %d, want >= 16", st.Produced)
	}
	if st.Buffered != 16 {
		t.Fatalf("buffered %d, want 16 (channel full)", st.Buffered)
	}
}

func TestPoolTupleConsistency(t *testing.T) {
	// Pool-dealt blocks must satisfy the same dealer invariants as on-demand
	// ones: r reconstructs from the bit shares, and the Beaver triples hold.
	p := NewPool(3, 4, 1, 12)
	defer p.Close()
	waitForBuffer(t, p, 1)
	deal := p.TakeBlocks()
	if deal == nil {
		t.Fatal("TakeBlocks returned nil on a non-empty pool")
	}
	if len(deal) != 3 {
		t.Fatalf("deal for %d parties, want 3", len(deal))
	}
	checkDeal(t, deal)
}

func TestPoolHitsAndMisses(t *testing.T) {
	p := NewPool(2, 128, 1, 13)
	defer p.Close()
	waitForBuffer(t, p, 2)

	if deal := p.TakeBlocks(); deal == nil {
		t.Fatal("expected a pool hit")
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("hits %d, want 1", st.Hits)
	}

	// Drain faster than one worker can refill: eventually a miss.
	sawMiss := false
	for i := 0; i < 10000 && !sawMiss; i++ {
		sawMiss = p.TakeBlocks() == nil
	}
	if !sawMiss {
		t.Fatal("pool never reported a miss under a hard drain")
	}
	if st := p.Stats(); st.Misses < 1 {
		t.Fatalf("misses %d, want >= 1", st.Misses)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3, 4, 2, 14)
	p.Close()
	p.Close() // must not panic or deadlock
	// Buffered deals stay takeable after Close.
	if p.Stats().Buffered > 0 && p.TakeBlocks() == nil {
		t.Fatal("buffered deals lost on Close")
	}
}

func TestPoolConcurrentTake(t *testing.T) {
	p := NewPool(3, 64, 2, 15)
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if deal := p.TakeBlocks(); deal != nil && len(deal) != 3 {
					t.Errorf("deal of size %d", len(deal))
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

func TestEngineWithPoolCorrect(t *testing.T) {
	// Protocol-mode comparisons must stay correct when their correlated
	// randomness comes from the pool instead of the engine's own dealer, or
	// from both within one batch. The pool is closed once full — buffered
	// deals stay takeable, nothing refills — so the split is exact.
	p := NewPool(3, 9*64, 1, 16)
	e, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachPool(p); err != nil {
		t.Fatal(err)
	}
	waitForBuffer(t, p, 9)
	p.Close()
	cases := []struct {
		diffs []int64
		want  bool
	}{
		{[]int64{-5, 2, 2}, true},
		{[]int64{5, -2, -2}, false},
		{[]int64{0, 0, 0}, false},
		{[]int64{1 << 30, -(1 << 30), -1}, true},
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
	// 5 deals left: k = 1 and 64 take one each, 65 takes two, and 200 gets
	// its first word from the pool and the other three from the dealer.
	rng := testRNG(17)
	for _, k := range []int{1, 64, 65, 200} {
		diffs, want := randomBatch(rng, 3, k)
		got, err := e.CompareBatch(diffs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d instance %d (%v) = %v, want %v", k, i, diffs[i], got[i], want[i])
			}
		}
	}
	if st := p.Stats(); st.Hits != 9 || st.Misses != 3 {
		t.Fatalf("pool stats %+v, want 9 hits / 3 misses", st)
	}
}

func TestAttachPoolPartyMismatch(t *testing.T) {
	p := NewPool(4, 4, 1, 18)
	defer p.Close()
	e, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachPool(p); err == nil {
		t.Fatal("attached a 4-party pool to a 3-party engine")
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

	// Forks share the root's calibration without re-running it.
	rb, _, _ := root.PerCompareCost()
	fb, _, _ := f1.PerCompareCost()
	if rb == 0 || rb != fb {
		t.Fatalf("fork calibration %d, root %d", fb, rb)
	}

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

func TestPoolCloseSemantics(t *testing.T) {
	p := NewPool(3, 8*64, 2, 16)
	waitForBuffer(t, p, 8)
	p.Close()
	p.Close() // double close must not panic or deadlock

	// Every deal buffered before Close stays takeable after it.
	buffered := p.Stats().Buffered
	if buffered != 8 {
		t.Fatalf("buffered after close = %d, want 8", buffered)
	}
	for i := 0; i < buffered; i++ {
		if deal := p.TakeBlocks(); len(deal) != 3 {
			t.Fatalf("take %d after close: deal of size %d", i, len(deal))
		}
	}

	// Once dry, TakeBlocks reports a miss immediately — it must never block,
	// even with the replenishers gone.
	done := make(chan []TupleBlock, 1)
	go func() { done <- p.TakeBlocks() }()
	select {
	case deal := <-done:
		if deal != nil {
			t.Fatal("dry closed pool returned a deal")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TakeBlocks blocked on a dry closed pool")
	}
	st := p.Stats()
	if st.Hits != int64(buffered) || st.Misses != 1 {
		t.Fatalf("stats after drain = %+v, want %d hits / 1 miss", st, buffered)
	}
	p.Close() // close after drain is still safe
}
