package core

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

type fixture struct {
	f     *fed.Federation
	joint graph.Weights
	lm    *lb.Landmarks
	idx   *ch.Index
}

func newFixture(t *testing.T, kind string, seed uint64, mode mpc.Mode) *fixture {
	t.Helper()
	var g *graph.Graph
	var w0 graph.Weights
	switch kind {
	case "grid":
		g, w0 = graph.GenerateGrid(10, 10, seed)
	case "roadlike":
		g, w0 = graph.GenerateRoadLike(300, seed)
	case "tiny":
		g, w0 = graph.GenerateGrid(4, 4, seed)
	default:
		t.Fatalf("unknown fixture kind %s", kind)
	}
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, seed+1)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mode, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{f: f, joint: f.JointWeights()}
	fx.lm = lb.PrecomputeLandmarks(f, lb.SelectLandmarks(g, w0, 8, 3))
	fx.idx, err = ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *fixture) engine(t *testing.T, opt Options) *Engine {
	t.Helper()
	e, err := NewEngine(fx.f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func jointSum(p fed.Partial) int64 {
	var s int64
	for _, v := range p {
		s += v
	}
	return s
}

// checkSPSP verifies one query result against plaintext Dijkstra on the
// materialized WJRN: the joint cost matches, the path is a real path whose
// joint cost equals the reported cost, and the endpoints are right.
func (fx *fixture) checkSPSP(t *testing.T, res PathResult, s, tt graph.Vertex) {
	t.Helper()
	want, _ := graph.DijkstraTo(fx.f.Graph(), fx.joint, s, tt)
	if !res.Found {
		if want < graph.InfCost {
			t.Fatalf("query (%d,%d): not found, want dist %d", s, tt, want)
		}
		return
	}
	got := jointSum(res.Partial)
	if got != want {
		t.Fatalf("query (%d,%d): joint cost %d, want %d", s, tt, got, want)
	}
	if res.Path[0] != s || res.Path[len(res.Path)-1] != tt {
		t.Fatalf("query (%d,%d): path endpoints %v", s, tt, res.Path)
	}
	pc, err := graph.PathCost(fx.f.Graph(), fx.joint, res.Path)
	if err != nil {
		t.Fatalf("query (%d,%d): invalid path: %v", s, tt, err)
	}
	if pc != want {
		t.Fatalf("query (%d,%d): path cost %d, want %d", s, tt, pc, want)
	}
}

func TestSPSPAllConfigurationsMatchWJRN(t *testing.T) {
	for _, kind := range []string{"grid", "roadlike"} {
		fx := newFixture(t, kind, 51, mpc.ModeIdeal)
		rng := rand.New(rand.NewPCG(1, 1))
		n := fx.f.Graph().NumVertices()
		for _, useIdx := range []bool{false, true} {
			for _, est := range []lb.Kind{lb.None, lb.FedALT, lb.FedALTMax, lb.FedAMPS} {
				for _, q := range []pq.Kind{pq.KindHeap, pq.KindLeftist, pq.KindTMTree} {
					opt := Options{Queue: q, Estimator: est, Landmarks: fx.lm}
					if useIdx {
						opt.Index = fx.idx
					}
					e := fx.engine(t, opt)
					for trial := 0; trial < 6; trial++ {
						s := graph.Vertex(rng.IntN(n))
						tt := graph.Vertex(rng.IntN(n))
						res, _, err := e.SPSP(s, tt)
						if err != nil {
							t.Fatalf("%s idx=%v est=%s q=%s: %v", kind, useIdx, est, q, err)
						}
						fx.checkSPSP(t, res, s, tt)
					}
				}
			}
		}
	}
}

func TestSPSPManyRandomQueriesDefaultStack(t *testing.T) {
	// The paper's full stack (shortcuts + Fed-AMPS + TM-tree), hammered.
	fx := newFixture(t, "grid", 53, mpc.ModeIdeal)
	e := fx.engine(t, Options{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: fx.idx})
	rng := rand.New(rand.NewPCG(2, 2))
	n := fx.f.Graph().NumVertices()
	for trial := 0; trial < 120; trial++ {
		s := graph.Vertex(rng.IntN(n))
		tt := graph.Vertex(rng.IntN(n))
		res, _, err := e.SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkSPSP(t, res, s, tt)
	}
}

func TestSPSPSelfQuery(t *testing.T) {
	fx := newFixture(t, "tiny", 55, mpc.ModeIdeal)
	e := fx.engine(t, Options{})
	res, st, err := e.SPSP(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Path) != 1 || res.Path[0] != 5 || jointSum(res.Partial) != 0 {
		t.Fatalf("self query: %+v", res)
	}
	if st.SAC.Compares != 0 {
		t.Fatal("self query used comparisons")
	}
}

func TestSPSPRejectsBadInput(t *testing.T) {
	fx := newFixture(t, "tiny", 57, mpc.ModeIdeal)
	e := fx.engine(t, Options{})
	if _, _, err := e.SPSP(-1, 2); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, _, err := e.SPSP(0, 9999); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestSSSPMatchesPlaintextTopK(t *testing.T) {
	fx := newFixture(t, "grid", 59, mpc.ModeIdeal)
	g := fx.f.Graph()
	full := graph.Dijkstra(g, fx.joint, 7)
	dists := append([]int64(nil), full.Dist...)
	sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })

	for _, q := range []pq.Kind{pq.KindHeap, pq.KindTMTree} {
		e := fx.engine(t, Options{Queue: q})
		const k = 25
		results, stats, err := e.SSSP(7, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != k {
			t.Fatalf("got %d results, want %d", len(results), k)
		}
		if results[0].Target != 7 || jointSum(results[0].Partial) != 0 {
			t.Fatalf("first result must be the source: %+v", results[0])
		}
		prev := int64(0)
		for i, r := range results {
			d := jointSum(r.Partial)
			if d != full.Dist[r.Target] {
				t.Fatalf("result %d: dist %d != Dijkstra %d for target %d", i, d, full.Dist[r.Target], r.Target)
			}
			if d != dists[i] {
				t.Fatalf("result %d: dist %d is not the %d-th smallest (%d)", i, d, i, dists[i])
			}
			if d < prev {
				t.Fatalf("results not in ascending distance order at %d", i)
			}
			prev = d
			pc, err := graph.PathCost(g, fx.joint, r.Path)
			if err != nil || pc != d {
				t.Fatalf("result %d: bad path (cost %d, err %v, want %d)", i, pc, err, d)
			}
		}
		if stats.SettledVertices != k {
			t.Fatalf("settled %d vertices for k=%d", stats.SettledVertices, k)
		}
	}
}

func TestSSSPFullGraph(t *testing.T) {
	fx := newFixture(t, "tiny", 61, mpc.ModeIdeal)
	g := fx.f.Graph()
	e := fx.engine(t, Options{})
	results, _, err := e.SSSP(0, g.NumVertices()+100) // k clamped
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != g.NumVertices() {
		t.Fatalf("full SSSP returned %d of %d vertices", len(results), g.NumVertices())
	}
	if _, _, err := e.SSSP(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestShortcutIndexReducesComparisons(t *testing.T) {
	// Fig. 7 shape: shortcuts + Fed-AMPS slash the Fed-SAC count of long
	// queries by a large factor, and TM-tree reduces it further.
	fx := newFixture(t, "grid", 63, mpc.ModeIdeal)
	n := fx.f.Graph().NumVertices()
	s, tt := graph.Vertex(0), graph.Vertex(n-1) // opposite grid corners

	run := func(opt Options) int64 {
		e := fx.engine(t, opt)
		res, stats, err := e.SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkSPSP(t, res, s, tt)
		return stats.SAC.Compares
	}
	naive := run(Options{Queue: pq.KindHeap})
	withIdx := run(Options{Queue: pq.KindHeap, Index: fx.idx})
	withAMPS := run(Options{Queue: pq.KindHeap, Index: fx.idx, Estimator: lb.FedAMPS})
	withTM := run(Options{Queue: pq.KindTMTree, Index: fx.idx, Estimator: lb.FedAMPS})
	if withIdx >= naive {
		t.Fatalf("shortcut index did not reduce comparisons: %d vs %d", withIdx, naive)
	}
	if withAMPS >= withIdx {
		t.Fatalf("Fed-AMPS did not reduce comparisons: %d vs %d", withAMPS, withIdx)
	}
	if withTM >= withAMPS {
		t.Fatalf("TM-tree did not reduce comparisons: %d vs %d", withTM, withAMPS)
	}
}

func TestProtocolModeEndToEnd(t *testing.T) {
	// Full MPC protocol under the complete optimization stack on a small
	// network: the ultimate integration test.
	fx := newFixture(t, "tiny", 65, mpc.ModeProtocol)
	e := fx.engine(t, Options{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: fx.idx})
	rng := rand.New(rand.NewPCG(4, 4))
	n := fx.f.Graph().NumVertices()
	for trial := 0; trial < 8; trial++ {
		s := graph.Vertex(rng.IntN(n))
		tt := graph.Vertex(rng.IntN(n))
		res, stats, err := e.SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkSPSP(t, res, s, tt)
		if s != tt && stats.SAC.Bytes == 0 {
			t.Fatal("protocol mode produced no traffic")
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	fx := newFixture(t, "grid", 67, mpc.ModeIdeal)
	e := fx.engine(t, Options{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: fx.idx})
	_, stats, err := e.SPSP(0, graph.Vertex(fx.f.Graph().NumVertices()-1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SettledVertices == 0 || stats.SAC.Compares == 0 || stats.Queue.Pushes == 0 {
		t.Fatalf("stats incomplete: %+v", stats)
	}
	if stats.SAC.Rounds == 0 || stats.SAC.Bytes == 0 || stats.SAC.Messages == 0 {
		t.Fatalf("communication accounting missing: %+v", stats.SAC)
	}
}

func TestNewEngineValidation(t *testing.T) {
	fx := newFixture(t, "tiny", 69, mpc.ModeIdeal)
	if _, err := NewEngine(fx.f, Options{Estimator: lb.FedALT}); err == nil {
		t.Fatal("Fed-ALT without landmarks accepted")
	}
	if _, err := NewEngine(fx.f, Options{Estimator: lb.Kind("zzz")}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
	if _, err := NewEngine(fx.f, Options{Queue: pq.Kind("zzz")}); err == nil {
		t.Fatal("unknown queue accepted")
	}
	// Index bound to a different federation is rejected.
	other := newFixture(t, "tiny", 71, mpc.ModeIdeal)
	if _, err := NewEngine(fx.f, Options{Index: other.idx}); err == nil {
		t.Fatal("foreign index accepted")
	}
}

func TestSPSPAfterDynamicUpdate(t *testing.T) {
	// End-to-end: traffic changes, the index updates, queries stay exact.
	fx := newFixture(t, "grid", 73, mpc.ModeIdeal)
	g := fx.f.Graph()
	rng := rand.New(rand.NewPCG(5, 5))
	sets := make([]graph.Weights, fx.f.P())
	for p := range sets {
		sets[p] = slices.Clone(fx.f.Silo(p).Weights())
	}
	var changed []graph.Arc
	for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/20] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := range sets {
			sets[p][a] = fx.f.StaticWeights()[a]*2 + int64(rng.IntN(5000))
		}
	}
	next := fx.f.WithWeights(sets)
	idx, _, err := fx.idx.Update(next, changed)
	if err != nil {
		t.Fatal(err)
	}
	fx.f, fx.idx, fx.joint = next, idx, next.JointWeights()
	e := fx.engine(t, Options{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: fx.idx})
	n := g.NumVertices()
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(n))
		tt := graph.Vertex(rng.IntN(n))
		res, _, err := e.SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkSPSP(t, res, s, tt)
	}
}
