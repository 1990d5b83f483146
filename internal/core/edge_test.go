package core

import (
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// disconnectedFederation builds two islands (0-1-2 and 3-4-5) with no arcs
// between them.
func disconnectedFederation(t *testing.T) *fed.Federation {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	w0 := make(graph.Weights, g.NumArcs())
	for a := range w0 {
		w0[a] = 1000
	}
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 7)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUnreachableTargetAllConfigs(t *testing.T) {
	f := disconnectedFederation(t)
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{},
		{Index: idx},
		{Estimator: lb.FedAMPS, Queue: pq.KindTMTree},
		{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree},
		{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree, BatchedMPC: true},
	} {
		e, err := NewEngine(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.SPSP(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("opt %+v: found a path between islands: %v", opt, res.Path)
		}
		// Reachable pair on the same island still works.
		res, _, err = e.SPSP(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || jointSum(res.Partial) == 0 {
			t.Fatalf("opt %+v: intra-island query broken: %+v", opt, res)
		}
	}
}

func TestSSSPOnDisconnectedGraph(t *testing.T) {
	f := disconnectedFederation(t)
	e, err := NewEngine(f, Options{Queue: pq.KindTMTree})
	if err != nil {
		t.Fatal(err)
	}
	// Asking for more results than the island holds returns just the island.
	results, _, err := e.SSSP(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("SSSP crossed islands: %d results", len(results))
	}
	for _, r := range results {
		if r.Target > 2 {
			t.Fatalf("vertex %d reached across the gap", r.Target)
		}
	}
}

// TestProtocolModeIndexBuild runs the ENTIRE federated index construction —
// ordering, witness searches, shortcut decisions — through the full MPC
// protocol on a small network, then checks queries.
func TestProtocolModeIndexBuild(t *testing.T) {
	g, w0 := graph.GenerateGrid(4, 4, 201)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 202)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeProtocol, Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if idx.BuildStatistics().SAC.Bytes == 0 {
		t.Fatal("protocol-mode build produced no traffic")
	}
	e, err := NewEngine(f, Options{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree})
	if err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	for s := graph.Vertex(0); s < 4; s++ {
		for tt := graph.Vertex(12); tt < 16; tt++ {
			res, _, err := e.SPSP(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := graph.DijkstraTo(g, joint, s, tt)
			if jointSum(res.Partial) != want {
				t.Fatalf("protocol-built index: dist(%d,%d) = %d, want %d",
					s, tt, jointSum(res.Partial), want)
			}
		}
	}
}

// TestEqualWeightTies: identical weights everywhere create maximal ties in
// every comparison — tie-breaking must stay consistent between the index,
// the estimators and the queues.
func TestEqualWeightTies(t *testing.T) {
	g, _ := graph.GenerateGrid(7, 7, 205)
	w := make(graph.Weights, g.NumArcs())
	for a := range w {
		w[a] = 5000
	}
	sets := []graph.Weights{w, append(graph.Weights{}, w...), append(graph.Weights{}, w...)}
	f, err := fed.New(g, w, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 206})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	e, err := NewEngine(f, Options{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]graph.Vertex{{0, 48}, {6, 42}, {3, 45}, {0, 1}} {
		res, _, err := e.SPSP(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(g, joint, pair[0], pair[1])
		if jointSum(res.Partial) != want {
			t.Fatalf("ties: dist(%d,%d) = %d, want %d", pair[0], pair[1], jointSum(res.Partial), want)
		}
	}
}

// TestExtremeWeightSkew: one silo observes 1000x heavier traffic than the
// others — partial magnitudes diverge wildly but joint queries stay exact.
func TestExtremeWeightSkew(t *testing.T) {
	g, w0 := graph.GenerateGrid(6, 6, 207)
	heavy := make(graph.Weights, len(w0))
	light := make(graph.Weights, len(w0))
	for a := range w0 {
		heavy[a] = w0[a] * 1000
		light[a] = 1 + w0[a]/10
	}
	f, err := fed.New(g, w0, []graph.Weights{heavy, light}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 208})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	e, err := NewEngine(f, Options{Index: idx, Estimator: lb.FedAMPS})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]graph.Vertex{{0, 35}, {5, 30}} {
		res, _, err := e.SPSP(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.DijkstraTo(g, joint, pair[0], pair[1])
		if jointSum(res.Partial) != want {
			t.Fatalf("skew: dist(%d,%d) = %d, want %d", pair[0], pair[1], jointSum(res.Partial), want)
		}
	}
}

// TestDeadEndPotentialsStayInRing: on a directed graph whose dead-end
// branch is reachable from s but cannot reach t, Fed-AMPS clamps the
// branch's potentials at graph.MaxPathCost, so a silo's share of a queue
// comparison approaches 2^40. The served route search, flat and indexed,
// still finds every s→t route exactly at P = 2, 8 and 64 — the most silos
// fed.New accepts — with no share reaching the engine's mpc.MaxMagnitude/P
// (ideal mode applies the protocol's magnitude check).
func TestDeadEndPotentialsStayInRing(t *testing.T) {
	// Route 0 → 1 → 2 → 3; each route vertex also leads into the cycle
	// 4 → 5 → 6 → 7 → 4, which has no way back.
	b := graph.NewBuilder(8)
	for _, a := range [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {1, 5}, {2, 6}, {4, 5}, {5, 6}, {6, 7}, {7, 4}} {
		b.AddArc(a[0], a[1])
	}
	g := b.Build()
	w0 := make(graph.Weights, g.NumArcs())
	for a := range w0 {
		w0[a] = int64(1000 + 137*a)
	}
	for _, silos := range []int{2, 8, 64} {
		sets := traffic.SiloWeights(w0, silos, traffic.Moderate, uint64(silos))
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var widest int64 // the largest |share| any instance carried
		view := f.WithDecide(func(decide fed.Decide) fed.Decide {
			return func(diffs [][]int64) ([]bool, error) {
				for _, d := range diffs {
					for _, v := range d {
						widest = max(widest, v, -v)
					}
				}
				return decide(diffs)
			}
		})
		idx, err := ch.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		joint := f.JointWeights()
		for _, index := range []*ch.Index{nil, idx} {
			e, err := NewEngine(view, RouteOptions(index))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []graph.Vertex{0, 1, 2} {
				res, _, err := e.SPSP(s, 3)
				if err != nil {
					t.Fatalf("P=%d indexed=%v: route %d→3: %v", silos, index != nil, s, err)
				}
				want, _ := graph.DijkstraTo(g, joint, s, 3)
				if !res.Found || jointSum(res.Partial) != want {
					t.Fatalf("P=%d indexed=%v: route %d→3 found=%v cost %d, want %d", silos, index != nil, s, res.Found, jointSum(res.Partial), want)
				}
			}
		}
		if limit := mpc.MaxMagnitude / int64(silos); widest < graph.MaxPathCost/2 || widest >= limit {
			t.Fatalf("P=%d: widest share %d, want a clamped potential's (≥ %d) below the limit %d", silos, widest, graph.MaxPathCost/2, limit)
		}
	}
}
