package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// TestLandmarkPrecomputeMatchesFederatedSSSP validates the ideal-functionality
// claim of lb.PrecomputeLandmarks: the partial cost matrices it derives must
// equal what an actual federated SSSP (Alg. 1, running through Fed-SAC)
// computes from each landmark.
func TestLandmarkPrecomputeMatchesFederatedSSSP(t *testing.T) {
	g, w0 := graph.GenerateGrid(7, 7, 83)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 84)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	landmarks := lb.SelectLandmarks(g, w0, 3, 2)
	lm := lb.PrecomputeLandmarks(f, landmarks)

	e, err := NewEngine(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range landmarks {
		// The matrices store distances v→l; on our symmetric-topology grids
		// with per-direction weights we verify against a federated SSSP on
		// the reversed direction by querying each vertex pair directly.
		for v := 0; v < g.NumVertices(); v += 5 {
			res, _, err := e.SPSP(graph.Vertex(v), l)
			if err != nil {
				t.Fatal(err)
			}
			var gotJoint, wantJoint int64
			for p := 0; p < f.P(); p++ {
				gotJoint += res.Partial[p]
				wantJoint += lm.Phi[p][li][v]
			}
			if gotJoint != wantJoint {
				t.Fatalf("landmark %d vertex %d: federated SPSP joint %d != precomputed %d",
					l, v, gotJoint, wantJoint)
			}
		}
	}
}

// TestSSSPTreeMatchesFederatedQueries cross-checks Alg. 1 against repeated
// SPSP queries: the k-th nearest vertex's distance from SSSP must equal an
// independent SPSP to that vertex.
func TestSSSPTreeMatchesFederatedQueries(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(150, 87)
	sets := traffic.SiloWeights(w0, 4, traffic.Heavy, 88)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, Options{Queue: pq.KindTMTree})
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := e.SSSP(9, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[1:] {
		spsp, _, err := e.SPSP(9, r.Target)
		if err != nil {
			t.Fatal(err)
		}
		var a, b int64
		for p := 0; p < f.P(); p++ {
			a += r.Partial[p]
			b += spsp.Partial[p]
		}
		if a != b {
			t.Fatalf("SSSP dist to %d (%d) != SPSP dist (%d)", r.Target, a, b)
		}
	}
}

// TestDirectedRandomGraphs exercises the full stack on adversarial directed
// topologies (not road-like at all): correctness must not depend on
// symmetry, planarity or hierarchy.
func TestDirectedRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g, base := graph.GenerateRandomDirected(70, 280, 5000, seed*97)
		// Derive silo weights by congesting the random base weights.
		sets := traffic.SiloWeights(base, 3, traffic.Moderate, seed)
		f, err := fed.New(g, base, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ch.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		lm := lb.PrecomputeLandmarks(f, lb.SelectLandmarks(g, base, 4, seed))
		joint := f.JointWeights()
		rng := rand.New(rand.NewPCG(seed, 3))
		for _, opt := range []Options{
			{},
			{Index: idx},
			{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree},
			{Estimator: lb.FedALTMax, Landmarks: lm},
		} {
			e, err := NewEngine(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				s := graph.Vertex(rng.IntN(g.NumVertices()))
				tt := graph.Vertex(rng.IntN(g.NumVertices()))
				res, _, err := e.SPSP(s, tt)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := graph.DijkstraTo(g, joint, s, tt)
				var got int64
				for p := 0; p < f.P(); p++ {
					got += res.Partial[p]
				}
				if res.Found != (want < graph.InfCost) {
					t.Fatalf("seed %d: found=%v want dist %d", seed, res.Found, want)
				}
				if res.Found && got != want {
					t.Fatalf("seed %d opt %+v: dist(%d,%d) = %d, want %d", seed, opt, s, tt, got, want)
				}
			}
		}
	}
}

// TestAsymmetricPerDirectionWeights verifies that per-direction weights on
// the same road are honored: congesting only one direction must leave the
// reverse query unaffected.
func TestAsymmetricPerDirectionWeights(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	w0 := make(graph.Weights, g.NumArcs())
	for a := range w0 {
		w0[a] = 1000
	}
	mk := func() graph.Weights {
		w := make(graph.Weights, len(w0))
		copy(w, w0)
		return w
	}
	s0, s1 := mk(), mk()
	// Jam only the 0->1 direction on both silos.
	s0[g.FindArc(0, 1)] = 9000
	s1[g.FindArc(0, 1)] = 11000
	f, err := fed.New(g, w0, []graph.Weights{s0, s1}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, _, err := e.SPSP(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rev, _, err := e.SPSP(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(p fed.Partial) int64 {
		var s int64
		for _, v := range p {
			s += v
		}
		return s
	}
	if sum(fwd.Partial) != 9000+11000+2000 {
		t.Fatalf("forward cost %d", sum(fwd.Partial))
	}
	if sum(rev.Partial) != 4000 {
		t.Fatalf("reverse cost %d, congestion leaked into the reverse direction", sum(rev.Partial))
	}
}
