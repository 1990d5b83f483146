package fedroad

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// Stress and chaos coverage for the weight-customization pipeline: randomized
// interleavings of queries, traffic batches, customization passes and full
// rebuilds (run under -race in CI), plus a fault-injection variant that
// poisons a customization mid-sweep and demands the previous index keep
// serving.

// TestCustomizeStressInterleaved hammers one federation from five directions
// at once: two query workers, a traffic writer, a customization worker and a
// full-rebuild worker. Every writer must succeed — they take turns — and
// every answer must be exact at the version it echoes; an error, a data race
// (-race) or an oracle divergence fails the test.
func TestCustomizeStressInterleaved(t *testing.T) {
	f, h := rebuildFederation(t, 150, 90)
	if err := f.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	n := f.Graph().NumVertices()
	rng := rand.New(rand.NewPCG(91, 0x7aff1c))
	race(t, h, scenario.Row{
		Fronts: 2,
		Front: sessionFront(t, f, func(w int) pairs {
			return func(i int) (Vertex, Vertex) { return Vertex((w*41 + i) % n), Vertex((w*13 + i*5) % n) }
		}),
		// Small random batches through the incremental path.
		Writer: func(int) ([]scenario.Update, error) {
			defer time.Sleep(time.Millisecond)
			return applyTraffic(f, scenario.Batch(rng, 4, f.Silos(), f.Graph().NumArcs(), 1, 9001))
		},
		Derivers: []func(int) error{
			// Repeated full customization passes, each over the weights it
			// finds published.
			func(int) error { return f.CustomizeIndex() },
			// The expensive path must coexist with everything above.
			func(int) error {
				defer time.Sleep(5 * time.Millisecond)
				return f.BuildIndex()
			},
		},
		For: 900 * time.Millisecond,
	})

	// Quiesced: a final customization must agree with plaintext Dijkstra on
	// the live weights.
	if err := f.CustomizeIndex(); err != nil {
		t.Fatalf("final customization: %v", err)
	}
	if !f.IndexStats().Customized {
		t.Fatal("final index is not customized")
	}
	spotCheck(t, f, liveJoint(f), "after stress quiesce")
}

// TestCustomizedTrafficCostPinned replays the first batches of the stress
// writer's seeded sequence above on a quiet federation and holds every
// in-place update to a pinned Fed-SAC cost, recorded when the sweep became
// winner-aware (every value at most the winner-blind sweep's): exactly the
// pinned comparisons, never more instances, and bytes that may differ only by
// frame rounding (an instance rounds its RoundsPerCompare−1
// bit-stream frames per ordered silo pair up to whole bytes; fewer instances
// round less).
func TestCustomizedTrafficCostPinned(t *testing.T) {
	f, _ := rebuildFederation(t, 150, 90)
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	parent := [][3]int64{ // comparisons, instances, bytes
		{20, 8, 996}, {12, 4, 594}, {15, 6, 750}, {22, 7, 1080}, {17, 7, 852}, {14, 5, 696},
		{15, 6, 744}, {29, 14, 1452}, {24, 8, 1182}, {18, 8, 906}, {13, 4, 636}, {13, 5, 648},
	}
	pairs := int64(f.Silos() * (f.Silos() - 1))
	g := f.Graph()
	rng := rand.New(rand.NewPCG(91, 0x7aff1c))
	for batch, want := range parent {
		ups := make([]TrafficUpdate, 0, 4)
		for i := 0; i < 4; i++ {
			ups = append(ups, TrafficUpdate{
				Silo:     rng.IntN(f.Silos()),
				Arc:      Arc(rng.IntN(g.NumArcs())),
				TravelMs: int64(1 + rng.IntN(9000)),
			})
		}
		st, err := f.ApplyTraffic(ups)
		if err != nil {
			t.Fatal(err)
		}
		drift := st.SAC.Bytes - want[2]
		instances := st.SAC.Rounds / mpc.RoundsPerCompare
		if st.SAC.Compares != want[0] || instances > want[1] || 1000*drift > want[2] || -drift > pairs*(mpc.RoundsPerCompare-1)*want[1] {
			t.Fatalf("batch %d: update cost {%d, %d, %d} (comparisons, instances, bytes), pinned %v",
				batch, st.SAC.Compares, instances, st.SAC.Bytes, want)
		}
	}
	spotCheck(t, f, liveJoint(f), "after pinned batches")
}

// TestCustomizeChaosPoisonedMidSweep arms a seeded FaultConn that kills one
// party's transport a few protocol rounds into a customization sweep: the
// pass must fail with an error — never hang or panic — the previously built
// index must keep serving correct answers, and a fresh pass after the fault
// clears must succeed.
func TestCustomizeChaosPoisonedMidSweep(t *testing.T) {
	plan := transport.FaultPlan{After: 60, Script: []transport.FaultKind{transport.FaultClose}}
	f, g, silos, armed := chaosFederation(t, plan, 1, Config{RoundTimeout: 150 * time.Millisecond})
	defer f.Close()

	if err := f.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	before := f.IndexStats()
	if !before.Customized {
		t.Fatal("initial customization not marked Customized")
	}

	// Poison the next customization mid-sweep.
	armed.Store(true)
	start := time.Now()
	err := f.CustomizeIndex()
	if err == nil {
		t.Fatal("customization over a killed transport succeeded")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("poisoned customization took %v — it must fail promptly", elapsed)
	}
	armed.Store(false)

	// The old index keeps serving, untouched.
	if !f.HasIndex() {
		t.Fatal("poisoned customization removed the serving index")
	}
	if got := f.IndexStats(); got.Shortcuts != before.Shortcuts || !got.Customized {
		t.Fatalf("poisoned customization disturbed the serving index: %+v", got)
	}
	route, _, qerr := f.ShortestPath(0, Vertex(g.NumVertices()-1))
	if qerr != nil {
		t.Fatalf("query after poisoned customization: %v", qerr)
	}
	if want := jointDijkstra(g, silos, 0, Vertex(g.NumVertices()-1)); JointCost(route) != want {
		t.Fatalf("query after poisoned customization cost %d, want %d", JointCost(route), want)
	}

	// And the pipeline recovers once the fault clears.
	if err := f.CustomizeIndex(); err != nil {
		t.Fatalf("customization after fault cleared: %v", err)
	}
}

// TestIndexBuildingCoversSkeletonContraction: a first CustomizeIndex has to
// contract the skeleton before its sweep can start, and a status endpoint
// polling IndexBuilding (or the fedroad_index_build_in_progress gauge) must
// see the derivation in flight for that whole stretch, not only once the
// sweep begins.
func TestIndexBuildingCoversSkeletonContraction(t *testing.T) {
	g, w0 := graph.GenerateGrid(28, 28, 97) // min-fill worst case: a slow skeleton
	f, err := New(g, w0, SimulateCongestion(w0, 3, Moderate, 98), Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() { done <- f.CustomizeIndex() }()
	seen := false
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if !seen {
				t.Fatal("IndexBuilding never read true while the skeleton was being contracted")
			}
			if f.IndexBuilding() {
				t.Fatal("IndexBuilding still true after CustomizeIndex returned")
			}
			return
		default:
		}
		// Read in this order: the flag is raised before the skeleton exists.
		if !f.HasSkeleton() && f.IndexBuilding() {
			seen = true
		}
		runtime.Gosched()
	}
}
