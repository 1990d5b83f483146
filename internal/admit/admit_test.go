package admit

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBound(t *testing.T) {
	g := New(2, nil)
	if err := g.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("third acquire: %v, want ErrShed", err)
	}
	g.Release()
	if err := g.Acquire(); err != nil {
		t.Fatalf("after release: %v", err)
	}
	st := g.Stats()
	if st.Admitted != 3 || st.Shed != 1 || st.Depth != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnlimitedOnlyCounts(t *testing.T) {
	g := New(0, nil)
	for i := 0; i < 100; i++ {
		if err := g.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Admitted != 100 || st.Shed != 0 || st.Depth != 100 {
		t.Fatalf("stats %+v", st)
	}
}

// TestAccountingInvariant is the soak bench's invariant under -race: across
// any concurrency, Admitted + Shed equals Acquire calls, and depth returns to
// zero when every admitted request releases.
func TestAccountingInvariant(t *testing.T) {
	g := New(4, nil)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				calls.Add(1)
				if err := g.Acquire(); err == nil {
					g.Release()
				}
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if st.Admitted+st.Shed != calls.Load() {
		t.Fatalf("admitted %d + shed %d != acquires %d", st.Admitted, st.Shed, calls.Load())
	}
	if st.Depth != 0 {
		t.Fatalf("depth %d after all releases", st.Depth)
	}
}
