package fedroad

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
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
// every answer must equal Dijkstra at the version it echoes; an error, a
// data race (-race) or an oracle divergence fails the test.
func TestCustomizeStressInterleaved(t *testing.T) {
	g, w0 := GenerateRoadNetwork(150, 90)
	silos := SimulateCongestion(w0, 3, Moderate, 91)
	f, err := New(g, w0, silos, Config{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	h := newWeightHistory(f, silos)

	const duration = 900 * time.Millisecond
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup

	// Query workers: every answer is checked at its echoed version once the
	// writer has recorded them all.
	answers := make([][]answer, 2)
	for w := range answers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := f.Session()
			defer s.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := Vertex((w*41 + i) % g.NumVertices())
				dst := Vertex((w*13 + i*5) % g.NumVertices())
				route, _, ver, err := s.ShortestPathAt(src, dst)
				if err != nil {
					errs <- err
					return
				}
				answers[w] = append(answers[w], answer{ver, src, dst, route})
			}
		}(w)
	}

	// Traffic writer: small random batches through the incremental path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(91, 0x7aff1c))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ups := make([]TrafficUpdate, 0, 4)
			for i := 0; i < 4; i++ {
				ups = append(ups, TrafficUpdate{
					Silo:     rng.IntN(f.Silos()),
					Arc:      Arc(rng.IntN(g.NumArcs())),
					TravelMs: int64(1 + rng.IntN(9000)),
				})
			}
			if _, err := f.ApplyTraffic(ups); err != nil {
				errs <- err
				return
			}
			h.apply(f.TrafficVersion(), ups)
			time.Sleep(time.Millisecond)
		}
	}()

	// Customization worker: repeated full customization passes, each over
	// the weights it finds published.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.CustomizeIndex(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Full-rebuild worker: the expensive path must coexist with everything
	// above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.BuildIndex(); err != nil {
				errs <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := h.checkAll(t, answers); n == 0 {
		t.Fatal("the query workers answered nothing")
	}

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
// in-place update to the Fed-SAC cost the level-synchronous sweep paid for it
// at c495f6e (recorded there): the same comparisons, never more rounds, and
// bytes that differ only by frame rounding (an instance rounds 7 frames per
// ordered silo pair up to whole bytes; fewer instances round less).
func TestCustomizedTrafficCostPinned(t *testing.T) {
	f := rebuildFederation(t, 150, 90)
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	parent := [][3]int64{ // comparisons, rounds, bytes
		{34, 160, 8160}, {15, 88, 3618}, {21, 128, 5088}, {29, 152, 6990}, {28, 136, 6714}, {18, 88, 4326},
		{18, 96, 4332}, {38, 168, 9090}, {32, 128, 7644}, {25, 120, 6006}, {17, 80, 4092}, {20, 80, 4776},
	}
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
		if st.SAC.Compares != want[0] || st.SAC.Rounds > want[1] || 1000*drift > want[2] || -drift > 42*want[1]/8 {
			t.Fatalf("batch %d: update cost {%d, %d, %d} (comparisons, rounds, bytes), level-synchronous sweep %v",
				batch, st.SAC.Compares, st.SAC.Rounds, st.SAC.Bytes, want)
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
