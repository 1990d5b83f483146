package fedroad

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/scenario"
)

// TestApplyTrafficWaitsForNoRoute: a traffic batch is applied while a route
// is in flight — its session parked mid-protocol — and returns without
// waiting for it; the route then answers at the version it loaded.
func TestApplyTrafficWaitsForNoRoute(t *testing.T) {
	p := newParker()
	g, w0 := GenerateRoadNetwork(120, 47)
	silos := SimulateCongestion(w0, 3, Moderate, 48)
	f, err := New(g, w0, silos, Config{Mode: ModeProtocol, Seed: 49, TransportWrap: p.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	h := newHistory(f, silos)
	type result struct {
		a   scenario.Answer
		err error
	}
	routed := make(chan result, 1)
	p.park(t, func() {
		sess := f.Session()
		go func() {
			defer sess.Close()
			route, _, ver, err := sess.ShortestPathAt(3, 100)
			routed <- result{answerOf(ver, 3, 100, route), err}
		}()
	})
	batch := []TrafficUpdate{{Silo: 0, Arc: 5, TravelMs: 99000}, {Silo: 2, Arc: 9, TravelMs: 120000}}
	applied := make(chan error, 1)
	go func() {
		_, err := f.ApplyTraffic(batch)
		applied <- err
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(p.release)
		t.Fatal("ApplyTraffic waited for a route in flight")
	}
	record(t, h, batch)
	close(p.release)
	r := <-routed
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.a.Version != f.TrafficVersion()-1 {
		t.Fatalf("the parked route answered at version %d, it loaded %d", r.a.Version, f.TrafficVersion()-1)
	}
	if err := h.Check(r.a); err != nil {
		t.Fatal(err)
	}
}

func TestSessionMatchesFederation(t *testing.T) {
	f, joint := testFederation(t, 300, 41)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	sess := f.Session()
	defer sess.Close()
	if sess.Federation() != f {
		t.Fatal("session detached from its federation")
	}
	for _, pair := range [][2]Vertex{{0, 250}, {17, 201}, {99, 3}} {
		route, _, err := sess.ShortestPath(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(f.Graph(), joint, pair[0], pair[1])
		if !route.Found || JointCost(route) != want {
			t.Fatalf("%v: session cost %d, want %d", pair, JointCost(route), want)
		}
	}
	if sess.Stats().Compares == 0 {
		t.Fatal("session recorded no secure comparisons")
	}
}

// TestSessionsRunInParallel: eight Sessions and the facade's ephemeral
// session answer at once, each route exact. No version moves, so the facade's
// routes, which echo none, are checked at the published one.
func TestSessionsRunInParallel(t *testing.T) {
	f, joint := testFederation(t, 300, 42)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	sessions := sessionFront(t, f, randomPairs(f, 43))
	race(t, scenario.NewHistory(f.Graph(), []Weights{joint}, f.TrafficVersion), scenario.Row{
		Fronts: 9, Queries: 10,
		Front: func(w int) scenario.Front {
			if w < 8 {
				return sessions(w)
			}
			next := randomPairs(f, 43)(w)
			return func(i int) (scenario.Answer, error) {
				s, d := next(i)
				route, _, err := f.ShortestPath(s, d, facadeConfigs[i%len(facadeConfigs)])
				return answerOf(f.TrafficVersion(), s, d, route), err
			}
		},
	})
}

// TestConcurrentQueriesUnderTrafficStress is the -race stress test for the
// session and version model: query workers hammer SPSP through private
// sessions while the writer continuously streams traffic updates through
// ApplyTraffic, each refreshing the witness index in place. A torn read of
// weights or index would surface as a route the oracle rejects (and any data
// race trips the race detector).
func TestConcurrentQueriesUnderTrafficStress(t *testing.T) {
	g, w0 := GenerateRoadNetwork(300, 44)
	silos := SimulateCongestion(w0, 3, Moderate, 45)
	f, err := New(g, w0, silos, Config{Mode: ModeIdeal, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(99, 45))
	race(t, newHistory(f, silos), scenario.Row{
		Fronts: 6, Queries: 10,
		Front: sessionFront(t, f, randomPairs(f, 46)),
		Writer: func(int) ([]scenario.Update, error) {
			return applyTraffic(f, scenario.Batch(rng, 6, f.Silos(), g.NumArcs(), 1000, 401000))
		},
	})
}

// Every out-of-range update is rejected as the client's mistake
// (ErrInvalidUpdate) and nothing is applied: the traffic version stays put.
func TestSetTrafficValidation(t *testing.T) {
	f, _ := testFederation(t, 100, 47)
	numArcs := f.Graph().NumArcs()
	ver := f.TrafficVersion()
	for _, c := range []struct {
		silo   int
		arc    Arc
		travel int64
	}{
		{-1, 0, 1000},
		{3, 0, 1000},
		{0, -1, 1000},
		{0, Arc(numArcs), 1000},
		{0, 0, 0},
		{0, 0, -5},
		{0, 0, MaxTravelMs},
	} {
		_, err := f.ApplyTraffic([]TrafficUpdate{{Silo: c.silo, Arc: c.arc, TravelMs: c.travel}})
		if !errors.Is(err, ErrInvalidUpdate) {
			t.Errorf("ApplyTraffic(silo %d, arc %d, %dms): %v, want ErrInvalidUpdate", c.silo, c.arc, c.travel, err)
		}
	}
	if got := f.TrafficVersion(); got != ver {
		t.Fatalf("rejected updates moved the traffic version %d -> %d", ver, got)
	}
	if _, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 0, TravelMs: 1000}}); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	if got := f.TrafficVersion(); got != ver+1 {
		t.Fatalf("valid update moved the traffic version %d -> %d, want +1", ver, got)
	}
}

func TestApplyTrafficRejectsBatchAtomically(t *testing.T) {
	f, _ := testFederation(t, 100, 48)
	before := f.cur.Load().fed.Silo(0).Weight(5)
	_, err := f.ApplyTraffic([]TrafficUpdate{
		{Silo: 0, Arc: 5, TravelMs: 77777},           // valid
		{Silo: 0, Arc: 5, TravelMs: MaxTravelMs + 1}, // invalid
	})
	if err == nil {
		t.Fatal("batch with an invalid update accepted")
	}
	if got := f.cur.Load().fed.Silo(0).Weight(5); got != before {
		t.Fatalf("rejected batch mutated weights: %d -> %d", before, got)
	}
}

func TestApplyTrafficRefreshesIndex(t *testing.T) {
	f, _ := testFederation(t, 250, 49)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before, _, err := f.ShortestPath(0, 200)
	if err != nil || !before.Found {
		t.Fatalf("no base route: %v", err)
	}
	var batch []TrafficUpdate
	for i := 0; i+1 < len(before.Path); i++ {
		a := f.Graph().FindArc(before.Path[i], before.Path[i+1])
		for p := 0; p < f.Silos(); p++ {
			batch = append(batch, TrafficUpdate{Silo: p, Arc: a, TravelMs: 900000})
		}
	}
	if _, err := f.ApplyTraffic(batch); err != nil {
		t.Fatal(err)
	}
	// Post-update consistency: the indexed route must match a plaintext
	// Dijkstra on the new joint weights.
	fast, _, err := f.ShortestPath(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.DijkstraTo(f.Graph(), f.cur.Load().fed.JointWeights(), 0, 200)
	if JointCost(fast) != want {
		t.Fatalf("post-update costs diverge: indexed %d, plaintext %d", JointCost(fast), want)
	}
}

// TestCloseWithoutMeshKeepsServing: Close releases only a mesh, so a
// protocol-mode federation on the in-process transport keeps answering
// correctly after it, and a second Close is a no-op.
func TestCloseWithoutMeshKeepsServing(t *testing.T) {
	g, w0 := GenerateRoadNetwork(150, 50)
	silos := SimulateCongestion(w0, 3, Moderate, 51)
	f, err := New(g, w0, silos, Config{Mode: ModeProtocol, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close()
	route, _, err := f.ShortestPath(0, 100)
	if want := jointDijkstra(g, silos, 0, 100); err != nil || !route.Found || JointCost(route) != want {
		t.Fatalf("query after Close: %v, cost %d, want %d", err, JointCost(route), want)
	}
}
