package fedroad

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/pq"
)

// The differential oracle harness: every federated engine configuration must
// return the same joint cost as plaintext Dijkstra on the summed joint
// weights. The oracle sees all private weights at once — exactly what the
// protocols must never leak — so agreement with it is the end-to-end
// correctness statement for the whole stack (Fed-SAC, estimators, queues,
// batching, the shortcut index, and the parallel index build).
//
// It runs at two layers. The facade (and with it session, cache and HTTP)
// runs one stack, so its oracle covers what a caller can still choose:
// index built or not. The paper's axes — estimator × queue × index/flat ×
// batching — are core.Options, and their lattice runs one layer down, on
// core engines over forks of the same federation, its index and landmark
// matrices computed at the weights being checked. For speed the federations
// run ModeIdeal, except TestOracleRoadNetwork's "default Config" row, which
// holds the facade of a zero-Config federation — the protocol production
// runs — to the oracle too (TestModesCountTheSameWork ties the modes
// together).

// oracleConfig is one point of the core engine's configuration lattice;
// Index and Landmarks are filled in per federation.
type oracleConfig struct {
	name    string
	opt     core.Options
	indexed bool
}

// queueAxis is every queue, the TM-tree with and without batched Fed-SAC
// (BatchedMPC requires the TM-tree).
var queueAxis = []struct {
	q pq.Kind
	b bool
}{{pq.KindHeap, false}, {pq.KindLeftist, false}, {pq.KindTMTree, false}, {pq.KindTMTree, true}}

// spspConfigs enumerates every valid SPSP configuration: {index, no index} ×
// {no estimator, FedALT, FedALTMax, FedAMPS} × queueAxis × {Alg. 1's queue,
// pruned pushes}.
func spspConfigs() []oracleConfig {
	var out []oracleConfig
	for _, indexed := range []bool{true, false} {
		for _, est := range []lb.Kind{lb.None, lb.FedALT, lb.FedALTMax, lb.FedAMPS} {
			for _, qb := range queueAxis {
				for _, prune := range []bool{false, true} {
					out = append(out, oracleConfig{
						name:    fmt.Sprintf("index=%v/est=%s/queue=%s/batched=%v/prune=%v", indexed, est, qb.q, qb.b, prune),
						opt:     core.Options{Estimator: est, Queue: qb.q, BatchedMPC: qb.b, PruneStaged: prune},
						indexed: indexed,
					})
				}
			}
		}
	}
	return out
}

// knnConfigs enumerates every valid kNN configuration (estimators do not
// apply and the search is index-free by construction).
func knnConfigs() []oracleConfig {
	var out []oracleConfig
	for _, qb := range queueAxis {
		out = append(out, oracleConfig{
			name: fmt.Sprintf("queue=%s/batched=%v", qb.q, qb.b),
			opt:  core.Options{Queue: qb.q, BatchedMPC: qb.b},
		})
	}
	return out
}

// facadeConfigs is what QueryOptions can select: nothing. Whether the index
// is built is the federation's state, not the query's.
var facadeConfigs = []QueryOptions{{}}

// lattice binds the configuration lattice to one federation at its current
// weights: engines run on forks of its MPC engine, over its index, with
// landmark matrices computed from those weights.
type lattice struct {
	f  *Federation
	lm *lb.Landmarks
}

func newLattice(f *Federation, seed uint64) lattice {
	g, w0, v := f.Graph(), f.inner.StaticWeights(), f.cur.Load().fed
	sets := make([]Weights, v.P())
	for p := range sets {
		sets[p] = v.Silo(p).Weights()
	}
	return lattice{f: f, lm: lb.Precompute(g, w0, sets, lb.SelectLandmarks(g, w0, 8, seed), 0)}
}

// engine builds cfg's engine on a fresh fork, which done releases.
func (l lattice) engine(t *testing.T, cfg oracleConfig) (e *core.Engine, done func()) {
	t.Helper()
	opt := cfg.opt
	opt.Landmarks = l.lm
	if cfg.indexed {
		opt.Index = l.f.cur.Load().index
	}
	fork := l.f.cur.Load().fed.Fork()
	e, err := core.NewEngine(fork, opt)
	if err != nil {
		t.Fatalf("%s: %v", cfg.name, err)
	}
	return e, fork.Engine().Close
}

func (l lattice) spsp(t *testing.T, cfg oracleConfig, s, dst Vertex) Route {
	t.Helper()
	e, done := l.engine(t, cfg)
	defer done()
	res, _, err := e.SPSP(s, dst)
	if err != nil {
		t.Fatalf("%s: SPSP(%d,%d): %v", cfg.name, s, dst, err)
	}
	return Route{Path: res.Path, Partials: res.Partial, Found: res.Found}
}

func (l lattice) knn(t *testing.T, cfg oracleConfig, s Vertex, k int) []Route {
	t.Helper()
	e, done := l.engine(t, cfg)
	defer done()
	results, _, err := e.SSSP(s, k)
	if err != nil {
		t.Fatalf("kNN %s: SSSP(%d,%d): %v", cfg.name, s, k, err)
	}
	routes := make([]Route, len(results))
	for i, r := range results {
		routes[i] = Route{Path: r.Path, Partials: r.Partial, Found: r.Found}
	}
	return routes
}

// checkAgainstOracle runs the facade's configurations and the whole core
// lattice of the SPSP, SSSP and kNN paths against plaintext Dijkstra on the
// joint weights. The federation must already have its index built; seed
// picks the landmarks.
func checkAgainstOracle(t *testing.T, f *Federation, joint Weights, queries [][2]Vertex, seed uint64) {
	t.Helper()
	checkFacadeAgainstOracle(t, f, joint, queries)
	l := newLattice(f, seed)
	spsp, knn := spspConfigs(), knnConfigs()
	if len(spsp) < 24 || len(knn) < 3 {
		t.Fatalf("lattice shrank to %d SPSP + %d kNN configurations", len(spsp), len(knn))
	}
	t.Logf("oracle lattice: %d SPSP + %d kNN core configurations, %d facade configurations", len(spsp), len(knn), len(facadeConfigs))
	checkRoutes(t, f.Graph(), joint, queries, len(spsp),
		func(i int) string { return spsp[i].name },
		func(i int, s, dst Vertex) Route { return l.spsp(t, spsp[i], s, dst) })
	checkKNN(t, f.Graph(), joint, queries, len(knn),
		func(i int) string { return knn[i].name },
		func(i int, s Vertex, k int) []Route { return l.knn(t, knn[i], s, k) })
}

// checkFacadeAgainstOracle checks what a caller of the facade can select, on
// a federation with or without an index.
func checkFacadeAgainstOracle(t *testing.T, f *Federation, joint Weights, queries [][2]Vertex) {
	t.Helper()
	name := func(i int) string {
		return fmt.Sprintf("facade index=%v", f.HasIndex())
	}
	checkRoutes(t, f.Graph(), joint, queries, len(facadeConfigs), name,
		func(i int, s, dst Vertex) Route {
			route, _, err := f.ShortestPath(s, dst, facadeConfigs[i])
			if err != nil {
				t.Fatalf("%s: ShortestPath(%d,%d): %v", name(i), s, dst, err)
			}
			return route
		})
	checkKNN(t, f.Graph(), joint, queries, len(facadeConfigs), name,
		func(i int, s Vertex, k int) []Route {
			routes, _, err := f.NearestNeighbors(s, k, facadeConfigs[i])
			if err != nil {
				t.Fatalf("kNN %s: NearestNeighbors(%d,%d): %v", name(i), s, k, err)
			}
			return routes
		})
}

// checkRoutes compares n configurations' routes, query by query, with
// plaintext Dijkstra on the joint weights.
func checkRoutes(t *testing.T, g *Graph, joint Weights, queries [][2]Vertex, n int, name func(int) string, run func(i int, s, dst Vertex) Route) {
	t.Helper()
	for _, q := range queries {
		s, dst := q[0], q[1]
		want, _ := graph.DijkstraTo(g, joint, s, dst)
		for i := 0; i < n; i++ {
			route := run(i, s, dst)
			if want >= graph.InfCost {
				if route.Found {
					t.Fatalf("%s: (%d,%d) found a route, oracle says unreachable", name(i), s, dst)
				}
				continue
			}
			if !route.Found {
				t.Fatalf("%s: (%d,%d) found nothing, oracle cost %d", name(i), s, dst, want)
			}
			if got := JointCost(route); got != want {
				t.Fatalf("%s: (%d,%d) joint cost %d, oracle %d", name(i), s, dst, got, want)
			}
			checkPathShape(t, g, route, s, dst, name(i))
		}
	}
}

// checkKNN compares n configurations' kNN answers (the Fed-SSSP path): the k
// nearest joint distances must match the oracle's k smallest, tie-safely —
// WHICH equal-cost vertex is k-th may differ, the distance multiset may not.
func checkKNN(t *testing.T, g *Graph, joint Weights, queries [][2]Vertex, n int, name func(int) string, run func(i int, s Vertex, k int) []Route) {
	t.Helper()
	for _, q := range queries {
		s := q[0]
		res := graph.Dijkstra(g, joint, s)
		var oracleDists []int64
		for v := 0; v < g.NumVertices(); v++ {
			if res.Dist[v] < graph.InfCost {
				oracleDists = append(oracleDists, res.Dist[v])
			}
		}
		sort.Slice(oracleDists, func(i, j int) bool { return oracleDists[i] < oracleDists[j] })
		for _, k := range []int{1, 5, len(oracleDists)} { // k = all reachable ⇒ full SSSP
			if k > len(oracleDists) {
				continue
			}
			for i := 0; i < n; i++ {
				routes := run(i, s, k)
				if len(routes) != k {
					t.Fatalf("kNN %s: got %d routes, want %d", name(i), len(routes), k)
				}
				prev := int64(-1)
				for j, r := range routes {
					c := JointCost(r)
					if c < prev {
						t.Fatalf("kNN %s: results not sorted: cost %d after %d", name(i), c, prev)
					}
					prev = c
					if len(r.Path) == 0 {
						t.Fatalf("kNN %s: route %d has empty path", name(i), j)
					}
					end := r.Path[len(r.Path)-1]
					if res.Dist[end] != c {
						t.Fatalf("kNN %s: route to %d costs %d, oracle distance %d", name(i), end, c, res.Dist[end])
					}
					if c != oracleDists[j] {
						t.Fatalf("kNN %s: %d-th nearest costs %d, oracle's %d-th smallest is %d",
							name(i), j, c, j, oracleDists[j])
					}
				}
			}
		}
	}
}

// checkPathShape verifies the returned vertex sequence is a real s→t walk in
// the topology.
func checkPathShape(t *testing.T, g *Graph, route Route, s, dst Vertex, name string) {
	t.Helper()
	if len(route.Path) == 0 || route.Path[0] != s || route.Path[len(route.Path)-1] != dst {
		t.Fatalf("%s: path %v does not run %d→%d", name, route.Path, s, dst)
	}
	for i := 0; i+1 < len(route.Path); i++ {
		if g.FindArc(route.Path[i], route.Path[i+1]) == graph.NoArc {
			t.Fatalf("%s: path hop %d→%d is not an arc", name, route.Path[i], route.Path[i+1])
		}
	}
}

// oracleFederation assembles a federation built from cfg over the given
// topology with congestion-simulated silo weights, builds its index if asked
// to, and returns the plaintext joint weight oracle.
func oracleFederation(t *testing.T, g *Graph, w0 Weights, seed uint64, indexed bool, cfg Config) (*Federation, Weights) {
	t.Helper()
	silos := SimulateCongestion(w0, 3, Moderate, seed)
	f, err := New(g, w0, silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := f.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	return f, graph.JointWeights(silos)
}

// checkBothFederations runs the full oracle on an indexed federation over
// the topology and the facade's on one that never built an index (its routes
// search flat).
func checkBothFederations(t *testing.T, g *Graph, w0 Weights, seed uint64, queries [][2]Vertex) {
	t.Helper()
	ideal := Config{Mode: ModeIdeal, Seed: seed}
	f, joint := oracleFederation(t, g, w0, seed, true, ideal)
	checkAgainstOracle(t, f, joint, queries, seed)
	flat, _ := oracleFederation(t, g, w0, seed, false, ideal)
	checkFacadeAgainstOracle(t, flat, joint, queries)
}

// oracleQueries picks deterministic query endpoints, including the
// degenerate s == t pair.
func oracleQueries(g *Graph, seed uint64, count int) [][2]Vertex {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	n := g.NumVertices()
	qs := [][2]Vertex{{Vertex(int(seed) % n), Vertex(int(seed) % n)}} // s == t
	for len(qs) < count {
		qs = append(qs, [2]Vertex{Vertex(rng.IntN(n)), Vertex(rng.IntN(n))})
	}
	return qs
}

// TestOracleRoadNetwork drives the full configuration lattice on randomized
// road-like networks across seeds, and the facade of an indexed federation
// built from the zero Config.
func TestOracleRoadNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, w0 := GenerateRoadNetwork(160, seed)
			checkBothFederations(t, g, w0, seed+100, oracleQueries(g, seed, 4))
		})
	}
	t.Run("default Config", func(t *testing.T) {
		g, w0 := GenerateRoadNetwork(160, 1)
		f, joint := oracleFederation(t, g, w0, 101, true, Config{})
		checkFacadeAgainstOracle(t, f, joint, oracleQueries(g, 1, 4))
	})
}

// TestOracleGridNetwork drives the same lattice on Manhattan-style grids.
func TestOracleGridNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, w0 := GenerateGridNetwork(6, 7, seed)
			checkBothFederations(t, g, w0, seed+200, oracleQueries(g, seed, 4))
		})
	}
}

// TestOracleAfterTrafficUpdate re-checks the lattice after dynamic traffic
// updates refresh the index — the dynamic-update path must stay
// oracle-correct, not just fresh builds.
func TestOracleAfterTrafficUpdate(t *testing.T) {
	g, w0 := GenerateRoadNetwork(140, 77)
	f, _ := oracleFederation(t, g, w0, 78, true, Config{Mode: ModeIdeal, Seed: 78})
	rng := rand.New(rand.NewPCG(79, 0xbeef))
	var ups []TrafficUpdate
	for i := 0; i < 25; i++ {
		ups = append(ups, TrafficUpdate{
			Silo:     rng.IntN(f.Silos()),
			Arc:      Arc(rng.IntN(g.NumArcs())),
			TravelMs: int64(1 + rng.IntN(int(MaxTravelMs-2))),
		})
	}
	if _, err := f.ApplyTraffic(ups); err != nil {
		t.Fatal(err)
	}
	// Rebuild the oracle from the live silo weights (post-update).
	checkAgainstOracle(t, f, f.cur.Load().fed.JointWeights(), oracleQueries(g, 80, 3), 78)
}

// TestOracleCustomizeAxis is the customize axis of the oracle: an index
// derived by weight CUSTOMIZATION over the topology skeleton must be
// indistinguishable, on every engine configuration, from both plaintext
// Dijkstra and a from-scratch federated build at the same traffic version.
// Several random traffic batches advance the version between checks, each
// followed by an ApplyTraffic(..., RebuildIndex) pass (which prefers the
// customization sweep because a skeleton exists).
func TestOracleCustomizeAxis(t *testing.T) {
	const versions = 3
	g, w0 := GenerateRoadNetwork(120, 91)

	// Both federations regenerate the SAME congestion sets (deterministic in
	// the seed) so they never share mutable weight slices.
	mk := func() *Federation {
		t.Helper()
		f, err := New(g, w0, SimulateCongestion(w0, 3, Moderate, 92), Config{Mode: ModeIdeal, Seed: 92})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	fCust := mk()
	if err := fCust.BuildSkeleton(); err != nil {
		t.Fatal(err)
	}
	if !fCust.HasSkeleton() {
		t.Fatal("HasSkeleton false after BuildSkeleton")
	}
	if fCust.SkeletonStats().Shortcuts <= 0 {
		t.Fatal("skeleton has no shortcuts on a road network")
	}
	if err := fCust.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	if st := fCust.IndexStats(); !st.Customized {
		t.Fatal("CustomizeIndex installed a non-customized index")
	}
	if got := fCust.Metrics().Snapshot()["fedroad_index_customizes_total"]; got != 1 {
		t.Fatalf("fedroad_index_customizes_total = %v, want 1", got)
	}

	rng := rand.New(rand.NewPCG(93, 0xabcd))
	var batches [][]TrafficUpdate
	for v := 1; v <= versions; v++ {
		var ups []TrafficUpdate
		for i := 0; i < 20; i++ {
			ups = append(ups, TrafficUpdate{
				Silo:     rng.IntN(fCust.Silos()),
				Arc:      Arc(rng.IntN(g.NumArcs())),
				TravelMs: int64(1 + rng.IntN(5000)),
			})
		}
		batches = append(batches, ups)
		if _, err := fCust.ApplyTraffic(ups, RebuildIndex); err != nil {
			t.Fatalf("version %d: ApplyTraffic(RebuildIndex): %v", v, err)
		}
		if st := fCust.IndexStats(); !st.Customized {
			t.Fatalf("version %d: RebuildIndex ran a full contraction despite the skeleton", v)
		}

		// A from-scratch federated build over the same weights at the same
		// traffic version.
		fFull := mk()
		for _, b := range batches {
			if _, err := fFull.ApplyTraffic(b); err != nil {
				t.Fatalf("version %d: replaying traffic: %v", v, err)
			}
		}
		if err := fFull.BuildIndex(); err != nil {
			t.Fatalf("version %d: full build: %v", v, err)
		}
		if fFull.IndexStats().Customized {
			t.Fatalf("version %d: from-scratch build reported Customized", v)
		}

		joint := fCust.cur.Load().fed.JointWeights()
		if jf := fFull.cur.Load().fed.JointWeights(); !slices.Equal(joint, jf) {
			t.Fatalf("version %d: the two federations diverged on silo weights", v)
		}
		queries := oracleQueries(g, 94+uint64(v), 3)

		// Full configuration lattice (SPSP + kNN) against plaintext Dijkstra.
		checkAgainstOracle(t, fCust, joint, queries, 92)

		// Every SPSP configuration: customized and from-scratch indexes must
		// return identical distances, query by query.
		lc, lf := newLattice(fCust, 92), newLattice(fFull, 92)
		for _, q := range queries {
			for _, cfg := range spspConfigs() {
				rc, rf := lc.spsp(t, cfg, q[0], q[1]), lf.spsp(t, cfg, q[0], q[1])
				if rc.Found != rf.Found {
					t.Fatalf("version %d %s: (%d,%d) customized found=%v, full build found=%v",
						v, cfg.name, q[0], q[1], rc.Found, rf.Found)
				}
				if rc.Found && JointCost(rc) != JointCost(rf) {
					t.Fatalf("version %d %s: (%d,%d) customized cost %d, full build cost %d",
						v, cfg.name, q[0], q[1], JointCost(rc), JointCost(rf))
				}
			}
			// And every kNN configuration on the same footing.
			for _, cfg := range knnConfigs() {
				rc, rf := lc.knn(t, cfg, q[0], 5), lf.knn(t, cfg, q[0], 5)
				if len(rc) != len(rf) {
					t.Fatalf("version %d kNN %s: customized %d routes, full build %d", v, cfg.name, len(rc), len(rf))
				}
				for i := range rc {
					if JointCost(rc[i]) != JointCost(rf[i]) {
						t.Fatalf("version %d kNN %s: %d-th distance %d vs %d",
							v, cfg.name, i, JointCost(rc[i]), JointCost(rf[i]))
					}
				}
			}
		}
		fFull.Close()
	}
	m := fCust.Metrics().Snapshot()
	if got := m["fedroad_index_customizes_total"]; got != versions+1 {
		t.Fatalf("fedroad_index_customizes_total = %v, want %d", got, versions+1)
	}
	if m["fedroad_index_derivation_mpc_rounds"] <= 0 {
		t.Fatal("fedroad_index_derivation_mpc_rounds reads no rounds for the customized index")
	}
}
