package fedroad

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// These tests exercise index derivations beside queries and traffic: queries
// stay oracle-correct and indexed at the published version while a
// derivation runs, and a derivation that traffic keeps arriving beside
// finishes — the traffic waits for it.

// liveJoint is the joint weights of the published version.
func liveJoint(f *Federation) Weights { return f.cur.Load().fed.JointWeights() }

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
// change, so every answer — before, during, and after the publish — must
// match one fixed oracle, whichever index generation served it.
func TestRebuildQueriesDuringBuild(t *testing.T) {
	f := rebuildFederation(t, 220, 50)
	joint := liveJoint(f)

	buildDone := make(chan error, 1)
	go func() { buildDone <- f.BuildIndex() }()

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

// TestRebuildRouteDuringDerivation parks a RebuildIndex batch's customization
// mid-protocol: a route asked meanwhile returns at once, at the previous
// version, over the previous index — it makes the comparisons the same route
// made before the batch, which a flat search does not. Released, the
// derivation publishes the batch with its index.
func TestRebuildRouteDuringDerivation(t *testing.T) {
	p := newParker()
	g, w0 := GenerateRoadNetwork(150, 51)
	silos := SimulateCongestion(w0, 3, Moderate, 52)
	f, err := New(g, w0, silos, Config{Mode: ModeProtocol, Seed: 53, TransportWrap: p.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	h := newWeightHistory(f, silos)
	route := func() (answer, Stats, error) {
		sess := f.Session()
		defer sess.Close()
		r, st, ver, err := sess.ShortestPathAt(3, 140)
		return answer{ver, 3, 140, r}, st, err
	}
	before, indexed, err := route()
	if err != nil {
		t.Fatal(err)
	}

	batch := []TrafficUpdate{{Silo: 0, Arc: 5, TravelMs: 99000}, {Silo: 1, Arc: 40, TravelMs: 150000}}
	rebuilt := make(chan error, 1)
	p.park(t, func() {
		go func() {
			_, err := f.ApplyTraffic(batch, RebuildIndex)
			rebuilt <- err
		}()
	})
	routed := make(chan struct{})
	var during answer
	var st Stats
	var routeErr error
	go func() {
		defer close(routed)
		during, st, routeErr = route()
	}()
	select {
	case <-routed:
	case <-time.After(10 * time.Second):
		close(p.release)
		t.Fatal("a route waited for the derivation")
	}
	if routeErr != nil {
		close(p.release)
		t.Fatal(routeErr)
	}
	if during.ver != before.ver || !f.HasIndex() || !f.IndexBuilding() {
		t.Fatalf("during the derivation: version %d (before %d), index %v, building %v",
			during.ver, before.ver, f.HasIndex(), f.IndexBuilding())
	}
	if st.SAC != indexed.SAC {
		t.Fatalf("the route made %+v, indexed before the batch %+v: it did not search the previous index", st.SAC, indexed.SAC)
	}
	if err := h.check(during); err != nil {
		t.Fatal(err)
	}

	close(p.release)
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	h.apply(f.TrafficVersion(), batch)
	if f.TrafficVersion() != before.ver+1 || !f.HasIndex() || f.IndexBuilding() {
		t.Fatalf("after the derivation: version %d, index %v, building %v", f.TrafficVersion(), f.HasIndex(), f.IndexBuilding())
	}
	after, _, err := route()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.check(after); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildUnderStreamingTraffic: ApplyTraffic(nil, RebuildIndex) succeeds
// while another goroutine streams traffic batches without pause — each batch
// waits for the derivation instead of invalidating it — and the index it
// publishes, updated in place by the batches after it, answers exactly.
func TestRebuildUnderStreamingTraffic(t *testing.T) {
	g, w0 := GenerateRoadNetwork(260, 54)
	silos := SimulateCongestion(w0, 3, Moderate, 55)
	f, err := New(g, w0, silos, Config{Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	h := newWeightHistory(f, silos)
	// The stream runs until three batches have followed the rebuild.
	flowing, rebuilt := make(chan struct{}), make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewPCG(57, 57))
		for i, after := 0, 0; after < 3; i++ {
			select {
			case <-rebuilt:
				after++
			default:
			}
			ups := []TrafficUpdate{{Silo: rng.IntN(3), Arc: Arc(rng.IntN(g.NumArcs())), TravelMs: 1 + rng.Int64N(200000)}}
			if _, err := f.ApplyTraffic(ups); err != nil {
				streamed <- err
				return
			}
			h.apply(f.TrafficVersion(), ups)
			if i == 0 {
				close(flowing)
			}
		}
		streamed <- nil
	}()
	select {
	case <-flowing:
	case err := <-streamed:
		t.Fatal(err)
	}
	_, rebuildErr := f.ApplyTraffic(nil, RebuildIndex)
	close(rebuilt)
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}
	if rebuildErr != nil {
		t.Fatalf("ApplyTraffic(nil, RebuildIndex) under streaming traffic: %v", rebuildErr)
	}
	sess := f.Session()
	defer sess.Close()
	rng := rand.New(rand.NewPCG(58, 58))
	for i := 0; i < 20; i++ {
		s, d := Vertex(rng.IntN(g.NumVertices())), Vertex(rng.IntN(g.NumVertices()))
		r, _, ver, err := sess.ShortestPathAt(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.check(answer{ver, s, d, r}); err != nil {
			t.Fatal(err)
		}
	}
}
