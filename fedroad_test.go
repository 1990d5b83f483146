package fedroad

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/transport"
)

func testFederation(t *testing.T, n int, seed uint64) (*Federation, Weights) {
	t.Helper()
	g, w0 := GenerateRoadNetwork(n, seed)
	silos := SimulateCongestion(w0, 3, Moderate, seed+1)
	f, err := New(g, w0, silos, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	joint := make(Weights, len(w0))
	for _, s := range silos {
		for a, w := range s {
			joint[a] += w
		}
	}
	return f, joint
}

func TestQuickstartFlow(t *testing.T) {
	f, joint := testFederation(t, 300, 5)
	if f.Silos() != 3 {
		t.Fatalf("Silos = %d", f.Silos())
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if !f.HasIndex() || f.IndexStats().Shortcuts == 0 {
		t.Fatal("index missing after BuildIndex")
	}
	route, stats, err := f.ShortestPath(3, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !route.Found {
		t.Fatal("route not found")
	}
	want, _ := graph.DijkstraTo(f.Graph(), joint, 3, 250)
	if JointCost(route) != want {
		t.Fatalf("joint cost %d, want %d", JointCost(route), want)
	}
	if stats.SAC.Compares == 0 {
		t.Fatal("no secure comparisons recorded")
	}
}

func TestShortestPathOptionVariants(t *testing.T) {
	f, joint := testFederation(t, 250, 7)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for vi, opt := range facadeConfigs {
		for trial := 0; trial < 4; trial++ {
			s := Vertex(rng.IntN(f.Graph().NumVertices()))
			tt := Vertex(rng.IntN(f.Graph().NumVertices()))
			route, _, err := f.ShortestPath(s, tt, opt)
			if err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt)
			if JointCost(route) != want {
				t.Fatalf("variant %d (%+v): cost %d, want %d", vi, opt, JointCost(route), want)
			}
		}
	}
}

func TestShortestPathWithoutIndex(t *testing.T) {
	f, joint := testFederation(t, 200, 9)
	route, _, err := f.ShortestPath(0, 150)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.DijkstraTo(f.Graph(), joint, 0, 150)
	if JointCost(route) != want {
		t.Fatalf("flat query cost %d, want %d", JointCost(route), want)
	}
}

func TestNearestNeighbors(t *testing.T) {
	f, joint := testFederation(t, 220, 11)
	routes, stats, err := f.NearestNeighbors(14, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 8 {
		t.Fatalf("got %d routes", len(routes))
	}
	if routes[0].Path[0] != 14 || JointCost(routes[0]) != 0 {
		t.Fatal("first result must be the source at distance 0")
	}
	full := graph.Dijkstra(f.Graph(), joint, 14)
	prev := int64(-1)
	for _, r := range routes {
		d := JointCost(r)
		if d < prev {
			t.Fatal("kNN results out of order")
		}
		prev = d
		tgt := r.Path[len(r.Path)-1]
		if d != full.Dist[tgt] {
			t.Fatalf("kNN distance %d != Dijkstra %d for %d", d, full.Dist[tgt], tgt)
		}
	}
	if stats.SettledVertices != 8 {
		t.Fatalf("settled %d, want 8", stats.SettledVertices)
	}
}

func TestTrafficUpdateFlow(t *testing.T) {
	f, _ := testFederation(t, 200, 13)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ver := f.TrafficVersion()
	if _, err := f.ApplyTraffic(nil); err != nil || f.TrafficVersion() != ver {
		t.Fatalf("empty batch: err %v, version %d -> %d", err, ver, f.TrafficVersion())
	}
	var batch []TrafficUpdate
	changed := 0
	rng := rand.New(rand.NewPCG(3, 3))
	for a := 0; a < f.Graph().NumArcs(); a += 17 {
		changed++
		for p := 0; p < f.Silos(); p++ {
			batch = append(batch, TrafficUpdate{Silo: p, Arc: Arc(a), TravelMs: int64(10000 + rng.IntN(50000))})
		}
	}
	stats, err := f.ApplyTraffic(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChangedArcs != changed {
		t.Fatalf("update stats wrong: %+v", stats)
	}
	// After the update, the indexed stack must agree with plaintext Dijkstra
	// on the new joint weights.
	joint := f.cur.Load().fed.JointWeights()
	for trial := 0; trial < 10; trial++ {
		s := Vertex(rng.IntN(f.Graph().NumVertices()))
		tt := Vertex(rng.IntN(f.Graph().NumVertices()))
		fast, _, err := f.ShortestPath(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt); JointCost(fast) != want {
			t.Fatalf("after update, indexed query %d != plaintext %d", JointCost(fast), want)
		}
	}
}

// Without a built index a traffic batch has no index to refresh: the weights
// land, the version moves and flat queries see them.
func TestUpdateIndexWithoutBuild(t *testing.T) {
	f, _ := testFederation(t, 100, 15)
	ver := f.TrafficVersion()
	stats, err := f.ApplyTraffic([]TrafficUpdate{{Silo: 0, Arc: 0, TravelMs: 777777}})
	if err != nil || stats != (ch.UpdateStats{}) {
		t.Fatalf("ApplyTraffic without an index: stats %+v, err %v", stats, err)
	}
	if f.TrafficVersion() != ver+1 || f.cur.Load().fed.Silo(0).Weight(0) != 777777 {
		t.Fatalf("update not applied: version %d -> %d, weight %d", ver, f.TrafficVersion(), f.cur.Load().fed.Silo(0).Weight(0))
	}
	route, _, err := f.ShortestPath(3, 90)
	want, _ := graph.DijkstraTo(f.Graph(), f.cur.Load().fed.JointWeights(), 3, 90)
	if err != nil || JointCost(route) != want {
		t.Fatalf("flat query after the update: cost %d, plaintext %d, err %v", JointCost(route), want, err)
	}
}

func TestProtocolModeFacade(t *testing.T) {
	g, w0 := GenerateGridNetwork(5, 5, 17)
	silos := SimulateCongestion(w0, 3, Moderate, 18)
	f, err := New(g, w0, silos, Config{Mode: ModeProtocol, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	route, stats, err := f.ShortestPath(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	joint := make(Weights, len(w0))
	for _, s := range silos {
		for a, w := range s {
			joint[a] += w
		}
	}
	want, _ := graph.DijkstraTo(g, joint, 0, 24)
	if JointCost(route) != want {
		t.Fatalf("protocol-mode cost %d, want %d", JointCost(route), want)
	}
	if stats.SAC.Bytes == 0 {
		t.Fatal("protocol mode reported no traffic")
	}
}

func TestGraphIORoundTripFacade(t *testing.T) {
	g, w0 := GenerateRoadNetwork(120, 21)
	var buf bytes.Buffer
	if err := SaveGraph(&buf, g, w0); err != nil {
		t.Fatal(err)
	}
	g2, w2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() || w2[0] != w0[0] {
		t.Fatal("round trip mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	g, w0 := GenerateRoadNetwork(60, 23)
	silos := SimulateCongestion(w0, 2, Moderate, 24)
	if _, err := New(g, w0, silos, Config{}, Config{}); err == nil {
		t.Fatal("two configs accepted")
	}
	f, err := New(g, w0, silos)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ShortestPath(0, 1, QueryOptions{}, QueryOptions{}); err == nil {
		t.Fatal("two query options accepted")
	}
	if _, _, err := f.NearestNeighbors(0, 1, QueryOptions{}, QueryOptions{}); err == nil {
		t.Fatal("two query options accepted")
	}
}

func TestCustomTopologyBuilder(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	g := b.Build()
	w0 := make(Weights, g.NumArcs())
	for a := range w0 {
		w0[a] = 1000
	}
	silos := []Weights{make(Weights, len(w0)), make(Weights, len(w0))}
	copy(silos[0], w0)
	copy(silos[1], w0)
	silos[0][g.FindArc(0, 3)] = 10000 // silo 0 observes congestion on 0-3
	silos[1][g.FindArc(0, 3)] = 10000
	f, err := New(g, w0, silos)
	if err != nil {
		t.Fatal(err)
	}
	route, _, err := f.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Joint weights make 0-1-2-3 (cost 6000) beat the congested 0-3 (20000).
	if len(route.Path) != 4 {
		t.Fatalf("expected detour, got path %v", route.Path)
	}
}

// TestSaveAndLoadIndex: SaveState is the one way to persist an index — a
// snapshot taken before BuildIndex carries none, one taken after restores it
// into a fresh federation over the same data.
func TestSaveAndLoadIndex(t *testing.T) {
	f, joint := testFederation(t, 200, 25)
	f2, _ := testFederation(t, 200, 25)
	var snap bytes.Buffer
	if err := f.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	if restored, err := f2.RestoreState(&snap); err != nil || restored || f2.HasIndex() {
		t.Fatalf("index-free snapshot: restored %v, HasIndex %v, err %v", restored, f2.HasIndex(), err)
	}
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	snap.Reset()
	if err := f.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	if restored, err := f2.RestoreState(&snap); err != nil || !restored {
		t.Fatalf("restored %v, err %v", restored, err)
	}
	if !f2.HasIndex() {
		t.Fatal("index missing after load")
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 15; trial++ {
		s := Vertex(rng.IntN(f2.Graph().NumVertices()))
		tt := Vertex(rng.IntN(f2.Graph().NumVertices()))
		route, _, err := f2.ShortestPath(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(f2.Graph(), joint, s, tt)
		if JointCost(route) != want {
			t.Fatalf("loaded-index query cost %d, want %d", JointCost(route), want)
		}
	}
}

func TestBatchedMPCFacade(t *testing.T) {
	f, joint := testFederation(t, 220, 27)
	if err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 10; trial++ {
		s := Vertex(rng.IntN(f.Graph().NumVertices()))
		tt := Vertex(rng.IntN(f.Graph().NumVertices()))
		route, stats, err := f.ShortestPath(s, tt, QueryOptions{BatchedMPC: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt)
		if JointCost(route) != want {
			t.Fatalf("batched query cost %d, want %d", JointCost(route), want)
		}
		if stats.SAC.Rounds > stats.SAC.Compares*9 {
			t.Fatal("batched query paid more rounds than sequential execution would")
		}
	}
}

// TestRebuildIndexBuildsWithoutSkeleton: an empty RebuildIndex batch on a
// federation with neither index nor skeleton runs the witness build —
// fedserver's -reindex-interval body. The witness build's
// ordering and caps are evaluation axes on ch.Params (internal/ch's
// TestDegreeOrderingBuildsCorrectIndex).
func TestRebuildIndexBuildsWithoutSkeleton(t *testing.T) {
	f, joint := testFederation(t, 180, 29)
	if _, err := f.ApplyTraffic(nil, RebuildIndex); err != nil {
		t.Fatal(err)
	}
	if st := f.IndexStats(); !f.HasIndex() || f.HasSkeleton() || st.Customized {
		t.Fatalf("RebuildIndex without a skeleton: index %v, skeleton %v, customized %v",
			f.HasIndex(), f.HasSkeleton(), st.Customized)
	}
	rng := rand.New(rand.NewPCG(11, 11))
	for trial := 0; trial < 10; trial++ {
		s := Vertex(rng.IntN(f.Graph().NumVertices()))
		tt := Vertex(rng.IntN(f.Graph().NumVertices()))
		route, _, err := f.ShortestPath(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt)
		if JointCost(route) != want {
			t.Fatalf("index: cost %d, want %d", JointCost(route), want)
		}
	}
}

// frameRecorder is a TransportWrap that logs, for every endpoint it wraps (in
// wrap order: the root engine's parties, then each fork's), the frames the
// endpoint sends to each peer.
type frameRecorder struct {
	mu   sync.Mutex
	sent [][][][]byte // [endpoint][to][frame]
}

func (r *frameRecorder) wrap(party int, c transport.Conn) transport.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = append(r.sent, make([][][]byte, c.N()))
	return &recordingConn{Conn: c, r: r, i: len(r.sent) - 1}
}

type recordingConn struct {
	transport.Conn
	r *frameRecorder
	i int
}

func (c *recordingConn) Send(to int, data []byte) error {
	c.r.mu.Lock()
	c.r.sent[c.i][to] = append(c.r.sent[c.i][to], bytes.Clone(data))
	c.r.mu.Unlock()
	return c.Conn.Send(to, data)
}

// TestSeedDeterminesTranscript: two federations built from the same Config
// send byte-identical frames for the same customization, in-place update of
// a multi-arc traffic batch, route and kNN on their first session, and
// another seed changes them. A session's randomness is a function of
// Config.Seed and its fork number alone, which is what lets a recorded
// transcript be replayed; the update pairs what it compares by arc, not by
// the order the batch's arcs come out of a map.
func TestSeedDeterminesTranscript(t *testing.T) {
	g, w0 := GenerateRoadNetwork(120, 81)
	silos := SimulateCongestion(w0, 3, Moderate, 82)
	rng := rand.New(rand.NewPCG(81, 82))
	var batch []TrafficUpdate
	for _, a := range rng.Perm(g.NumArcs())[:40] {
		batch = append(batch, TrafficUpdate{Silo: rng.IntN(3), Arc: Arc(a), TravelMs: w0[a] + rng.Int64N(90000) + 1})
	}
	transcript := func(seed uint64) [][][][]byte {
		rec := &frameRecorder{}
		f, err := New(g, w0, silos, Config{Mode: ModeProtocol, Seed: seed, TransportWrap: rec.wrap})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.CustomizeIndex(); err != nil {
			t.Fatal(err)
		}
		if st, err := f.ApplyTraffic(batch); err != nil || st.SAC.Compares == 0 {
			t.Fatalf("in-place update: %+v, %v", st, err)
		}
		sess := f.Session()
		defer sess.Close()
		opt := QueryOptions{BatchedMPC: true}
		if _, _, err := sess.ShortestPath(3, 100, opt); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.NearestNeighbors(7, 8, opt); err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.sent
	}
	a, b := transcript(83), transcript(83)
	if len(a) != len(b) {
		t.Fatalf("same seed wrapped %d and %d endpoints", len(a), len(b))
	}
	frames := 0
	for i := range a {
		for to := range a[i] {
			if !slices.EqualFunc(a[i][to], b[i][to], bytes.Equal) {
				t.Fatalf("same seed: endpoint %d's frames to party %d differ", i, to)
			}
			frames += len(a[i][to])
		}
	}
	if frames == 0 {
		t.Fatal("no frames recorded")
	}
	if reflect.DeepEqual(a, transcript(84)) {
		t.Fatal("another seed sent the same frames")
	}
}

// TestModesCountTheSameWork: ideal and protocol mode differ only in how a
// Fed-SAC instance is evaluated, never in what is compared or what it costs.
// Twin federations that differ only in Config.Mode run the same operations —
// a flat route, a customization, an indexed route, a kNN, an in-place traffic
// batch and a rebuilding one — and must return the same routes and count the
// same Fed-SACs, rounds, bytes and messages for every operation.
func TestModesCountTheSameWork(t *testing.T) {
	grid, wg := GenerateGridNetwork(5, 5, 91)
	road, wr := GenerateRoadNetwork(120, 92)
	for _, net := range []struct {
		name string
		g    *Graph
		w0   Weights
	}{{"grid", grid, wg}, {"road", road, wr}} {
		silos := SimulateCongestion(net.w0, 3, Moderate, 93)
		rng := rand.New(rand.NewPCG(94, 95))
		batch := func() []TrafficUpdate {
			var b []TrafficUpdate
			for _, a := range rng.Perm(net.g.NumArcs())[:net.g.NumArcs()/6] {
				b = append(b, TrafficUpdate{Silo: rng.IntN(3), Arc: Arc(a), TravelMs: net.w0[a] + rng.Int64N(90000) + 1})
			}
			return b
		}
		inPlace, rebuild := batch(), batch()
		n := Vertex(net.g.NumVertices())
		opt := QueryOptions{BatchedMPC: true}
		// run returns every route the operations answered, and per operation
		// what it cost.
		run := func(mode ExecutionMode) (routes []Route, costs map[string]SACStats) {
			f, err := New(net.g, net.w0, silos, Config{Mode: mode, Seed: 96})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			costs = make(map[string]SACStats)
			route := func(op string) {
				r, st, err := f.ShortestPath(0, n-1, opt)
				if err != nil {
					t.Fatalf("%s %s: %v", net.name, op, err)
				}
				routes, costs[op] = append(routes, r), st.SAC
			}
			route("flat route")
			if err := f.CustomizeIndex(); err != nil {
				t.Fatal(err)
			}
			costs["customization"] = f.IndexStats().SAC
			route("indexed route")
			rs, st, err := f.NearestNeighbors(n/2, 6, opt)
			if err != nil {
				t.Fatal(err)
			}
			routes, costs["kNN"] = append(routes, rs...), st.SAC
			up, err := f.ApplyTraffic(inPlace)
			if err != nil {
				t.Fatal(err)
			}
			costs["in-place batch"] = up.SAC
			route("route after the in-place batch")
			if _, err := f.ApplyTraffic(rebuild, RebuildIndex); err != nil {
				t.Fatal(err)
			}
			costs["rebuilding batch"] = f.IndexStats().SAC
			route("route after the rebuild")
			return routes, costs
		}
		idealRoutes, ideal := run(ModeIdeal)
		protoRoutes, proto := run(ModeProtocol)
		if !reflect.DeepEqual(idealRoutes, protoRoutes) {
			t.Fatalf("%s: the modes answered different routes", net.name)
		}
		for op, want := range ideal {
			if want.Compares == 0 {
				t.Fatalf("%s %s: compared nothing", net.name, op)
			}
			if got := proto[op]; got != want {
				t.Fatalf("%s %s: protocol mode counts %+v, ideal mode %+v", net.name, op, got, want)
			}
		}
	}
}
