package fedroad

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// These tests exercise the off-lock rebuild protocol: queries must stay
// oracle-correct while a build runs in the background, and a traffic update
// landing mid-build must yield either the typed conflict error or a
// consistent retried index — never a half-built or stale one.

// liveJoint reads the current joint weights straight off the silos. Only
// safe once all concurrent goroutines have been joined.
func liveJoint(f *Federation) Weights {
	g := f.Graph()
	joint := make(Weights, g.NumArcs())
	for p := 0; p < f.Silos(); p++ {
		for a := 0; a < g.NumArcs(); a++ {
			joint[a] += f.inner.Silo(p).Weight(Arc(a))
		}
	}
	return joint
}

// spotCheck verifies a handful of queries against plaintext Dijkstra on the
// given joint weights, on every stack the facade can select.
func spotCheck(t *testing.T, f *Federation, joint Weights, tag string) {
	t.Helper()
	g := f.Graph()
	queries := [][2]Vertex{{0, Vertex(g.NumVertices() - 1)}, {Vertex(g.NumVertices() / 2), 1}, {3, 3}}
	for _, q := range queries {
		want, _ := graph.DijkstraTo(g, joint, q[0], q[1])
		for _, opt := range facadeConfigs {
			route, _, err := f.ShortestPath(q[0], q[1], opt)
			if err != nil {
				t.Fatalf("%s: ShortestPath(%d,%d): %v", tag, q[0], q[1], err)
			}
			if !route.Found {
				t.Fatalf("%s: ShortestPath(%d,%d) found nothing, oracle cost %d", tag, q[0], q[1], want)
			}
			if got := JointCost(route); got != want {
				t.Fatalf("%s: ShortestPath(%d,%d) = %d, oracle %d", tag, q[0], q[1], got, want)
			}
		}
	}
}

func rebuildFederation(t *testing.T, n int, seed uint64) *Federation {
	t.Helper()
	g, w0 := GenerateRoadNetwork(n, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRebuildQueriesDuringBuild runs oracle-checked queries from several
// goroutines while an index build is in flight. The weights never
// change, so every answer — before, during, and after the swap — must match
// one fixed oracle, whichever index generation served it.
func TestRebuildQueriesDuringBuild(t *testing.T) {
	f := rebuildFederation(t, 220, 50)
	joint := liveJoint(f)

	buildDone := make(chan error, 1)
	go func() { buildDone <- f.BuildIndexWith(IndexParams{}) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := f.Session()
			defer s.Close()
			g := f.Graph()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := Vertex((w*31 + i) % g.NumVertices())
				dst := Vertex((w*17 + i*7) % g.NumVertices())
				want, _ := graph.DijkstraTo(g, joint, src, dst)
				route, _, err := s.ShortestPath(src, dst)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if route.Found && JointCost(route) != want {
					errs <- fmt.Errorf("worker %d: query %d->%d cost %d, oracle %d", w, src, dst, JointCost(route), want)
					return
				}
				if !route.Found && want < graph.InfCost {
					errs <- fmt.Errorf("worker %d: query %d->%d found nothing, oracle %d", w, src, dst, want)
					return
				}
			}
		}(w)
	}

	if err := <-buildDone; err != nil {
		t.Fatalf("background build failed: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !f.HasIndex() {
		t.Fatal("build reported success but HasIndex is false")
	}
	if f.IndexBuilding() {
		t.Fatal("IndexBuilding still true after build returned")
	}
	spotCheck(t, f, joint, "after build")
}

// TestRebuildConflict lands a traffic update in the middle of a build with
// no retries configured: the build must either finish before the update (nil
// error) or surface ErrBuildConflict — and in both cases the federation must
// answer queries consistently with the live weights afterward.
func TestRebuildConflict(t *testing.T) {
	f := rebuildFederation(t, 260, 60)

	buildDone := make(chan error, 1)
	go func() { buildDone <- f.BuildIndexWith(IndexParams{}) }()

	// Wait until the build is observably in flight, then invalidate its
	// snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for !f.IndexBuilding() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 0, TravelMs: 123}}); err != nil {
		t.Fatal(err)
	}
	raced := time.Now().After(deadline) // build finished before we saw it

	err := <-buildDone
	switch {
	case err == nil:
		// The build swapped in before the update; ApplyTraffic then refreshed
		// the index, so it must be present and consistent.
		if !f.HasIndex() {
			t.Fatal("nil build error but no index")
		}
	case errors.Is(err, ErrBuildConflict):
		if raced {
			t.Fatalf("build never became observable yet reports a conflict: %v", err)
		}
		if f.HasIndex() {
			t.Fatal("conflicted build must not leave an index installed")
		}
	default:
		t.Fatalf("build returned unexpected error: %v", err)
	}
	spotCheck(t, f, liveJoint(f), "after conflict")
}

// TestRebuildConflictRetry is the same race with RebuildOnConflict retries:
// the build must absorb the conflict, restart from fresh weights, and
// install a consistent index with a nil error.
func TestRebuildConflictRetry(t *testing.T) {
	f := rebuildFederation(t, 260, 70)

	buildDone := make(chan error, 1)
	go func() { buildDone <- f.BuildIndexWith(IndexParams{RebuildOnConflict: 3}) }()

	deadline := time.Now().Add(5 * time.Second)
	for !f.IndexBuilding() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 1, Arc: 2, TravelMs: 321}}); err != nil {
		t.Fatal(err)
	}

	if err := <-buildDone; err != nil {
		t.Fatalf("build with retries failed: %v", err)
	}
	if !f.HasIndex() {
		t.Fatal("successful retried build left no index")
	}
	spotCheck(t, f, liveJoint(f), "after retried build")

	// A further update must go through the incremental refresh path cleanly.
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 2, Arc: 5, TravelMs: 777}}); err != nil {
		t.Fatal(err)
	}
	spotCheck(t, f, liveJoint(f), "after post-build update")
}
