package fedroad

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/scenario"
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

// rebuildFederation is a 3-silo federation over an n-vertex road network
// and the history of its weights.
func rebuildFederation(t *testing.T, n int, seed uint64) (*Federation, *scenario.History) {
	t.Helper()
	g, w0 := GenerateRoadNetwork(n, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Mode: ModeIdeal, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return f, newHistory(f, silos)
}

// TestRebuildQueriesDuringBuild runs oracle-checked queries from several
// goroutines while an index build is in flight. The weights never change,
// so every answer — before, during, and after the publish — is checked at
// the one version, whichever index generation served it.
func TestRebuildQueriesDuringBuild(t *testing.T) {
	f, h := rebuildFederation(t, 220, 50)
	n := f.Graph().NumVertices()
	race(t, h, scenario.Row{
		Fronts: 3,
		Front: sessionFront(t, f, func(w int) pairs {
			return func(i int) (Vertex, Vertex) { return Vertex((w*31 + i) % n), Vertex((w*17 + i*7) % n) }
		}),
		Derivers:    []func(int) error{func(int) error { return f.BuildIndex() }},
		Derivations: 1,
	})
	if !f.HasIndex() {
		t.Fatal("build reported success but HasIndex is false")
	}
	if f.IndexBuilding() {
		t.Fatal("IndexBuilding still true after build returned")
	}
	spotCheck(t, f, liveJoint(f), "after build")
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
	h := newHistory(f, silos)
	route := func() (scenario.Answer, Stats, error) {
		sess := f.Session()
		defer sess.Close()
		r, st, ver, err := sess.ShortestPathAt(3, 140)
		return answerOf(ver, 3, 140, r), st, err
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
	var during scenario.Answer
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
	if during.Version != before.Version || !f.HasIndex() || !f.IndexBuilding() {
		t.Fatalf("during the derivation: version %d (before %d), index %v, building %v",
			during.Version, before.Version, f.HasIndex(), f.IndexBuilding())
	}
	if st.SAC != indexed.SAC {
		t.Fatalf("the route made %+v, indexed before the batch %+v: it did not search the previous index", st.SAC, indexed.SAC)
	}
	if err := h.Check(during); err != nil {
		t.Fatal(err)
	}

	close(p.release)
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	record(t, h, batch)
	if f.TrafficVersion() != before.Version+1 || !f.HasIndex() || f.IndexBuilding() {
		t.Fatalf("after the derivation: version %d, index %v, building %v", f.TrafficVersion(), f.HasIndex(), f.IndexBuilding())
	}
	after, _, err := route()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Check(after); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildUnderStreamingTraffic: ApplyTraffic(nil, RebuildIndex) succeeds
// while the writer streams traffic batches without pause — each batch waits
// for the derivation instead of invalidating it — and the index it
// publishes, updated in place by the batches after it, answers exactly.
func TestRebuildUnderStreamingTraffic(t *testing.T) {
	f, h := rebuildFederation(t, 260, 54)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(57, 57))
	flowing := make(chan struct{})
	var rebuilt atomic.Bool
	after := 0
	race(t, h, scenario.Row{
		Fronts: 1,
		Front:  sessionFront(t, f, randomPairs(f, 58)),
		// The stream ends three batches after the rebuild, far below Ops.
		Writer: func(i int) ([]scenario.Update, error) {
			if i == 0 {
				close(flowing)
			}
			if rebuilt.Load() {
				if after++; after > 3 {
					return nil, scenario.Done
				}
			}
			return applyTraffic(f, scenario.Batch(rng, 1, 3, f.Graph().NumArcs(), 1, 200001))
		},
		Ops: 10000,
		Derivers: []func(int) error{func(int) error {
			<-flowing
			if _, err := f.ApplyTraffic(nil, RebuildIndex); err != nil {
				return fmt.Errorf("ApplyTraffic(nil, RebuildIndex) under streaming traffic: %w", err)
			}
			rebuilt.Store(true)
			return nil
		}},
		Derivations: 1,
	})
	if after != 4 {
		t.Fatalf("%d batches followed the rebuild, want 3", after-1)
	}
	checkRoutesExact(t, "after the stream", f, h, 0)
}
