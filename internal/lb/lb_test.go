package lb

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

func testFed(t *testing.T, lvl traffic.Level, seed uint64) *fed.Federation {
	t.Helper()
	g, w0 := graph.GenerateGrid(14, 14, seed)
	sets := traffic.SiloWeights(w0, 3, lvl, seed+1)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func jointSum(p fed.Partial) int64 {
	var s int64
	for _, v := range p {
		s += v
	}
	return s
}

func TestSelectLandmarksBasics(t *testing.T) {
	g, w0 := graph.GenerateGrid(10, 10, 3)
	L := SelectLandmarks(g, w0, 8, 5)
	if len(L) != 8 {
		t.Fatalf("got %d landmarks", len(L))
	}
	seen := map[graph.Vertex]bool{}
	for _, l := range L {
		if seen[l] {
			t.Fatalf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	L2 := SelectLandmarks(g, w0, 8, 5)
	for i := range L {
		if L[i] != L2[i] {
			t.Fatal("landmark selection not deterministic")
		}
	}
}

func TestPrecomputePartialSumsMatchJoint(t *testing.T) {
	f := testFed(t, traffic.Moderate, 7)
	g := f.Graph()
	L := SelectLandmarks(g, f.StaticWeights(), 4, 2)
	lm := PrecomputeLandmarks(f, L, 0)
	joint := f.JointWeights()
	for li, l := range L {
		want := graph.NewSearch(g, joint, l, true)
		for v := 0; v < g.NumVertices(); v++ {
			d := want.DistTo(graph.Vertex(v))
			var sum int64
			for p := 0; p < f.P(); p++ {
				sum += lm.Phi[p][li][v]
			}
			if d >= graph.InfCost {
				continue
			}
			if sum != d {
				t.Fatalf("landmark %d vertex %d: partial sum %d != joint dist %d",
					l, v, sum, d)
			}
		}
		// Static matrix matches a plain backward Dijkstra under W0.
		want0 := graph.NewSearch(g, f.StaticWeights(), l, true)
		for v := 0; v < g.NumVertices(); v++ {
			if lm.Phi0[li][v] != want0.DistTo(graph.Vertex(v)) {
				t.Fatalf("static matrix wrong at landmark %d vertex %d", l, v)
			}
		}
	}
}

// admissible checks that for random pairs the estimator's joint bound never
// exceeds the true joint distance, in both search directions.
func admissible(t *testing.T, kind Kind, lvl traffic.Level) (meanRelErr float64) {
	t.Helper()
	f := testFed(t, lvl, 11)
	g := f.Graph()
	joint := f.JointWeights()
	var lm *Landmarks
	if kind == FedALT || kind == FedALTMax {
		lm = PrecomputeLandmarks(f, SelectLandmarks(g, f.StaticWeights(), 8, 3), 0)
	}
	rng := rand.New(rand.NewPCG(13, 13))
	var errSum float64
	var count int
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		if s == tt {
			continue
		}
		sac := f.NewSAC()
		fw, bw, err := NewPair(kind, f, lm, sac, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		trueDist, _ := graph.DijkstraTo(g, joint, s, tt)
		if trueDist >= graph.InfCost {
			continue
		}
		// Forward potential at several vertices v bounds dist(v→t).
		for probe := 0; probe < 5; probe++ {
			v := graph.Vertex(rng.IntN(g.NumVertices()))
			bound := jointSum(fw.Potential(v))
			dv, _ := graph.DijkstraTo(g, joint, v, tt)
			if dv < graph.InfCost && bound > dv {
				t.Fatalf("%s/%s: forward bound %d exceeds dist(%d,%d)=%d",
					kind, lvl.Name, bound, v, tt, dv)
			}
			bBound := jointSum(bw.Potential(v))
			dsv, _ := graph.DijkstraTo(g, joint, s, v)
			if dsv < graph.InfCost && bBound > dsv {
				t.Fatalf("%s/%s: backward bound %d exceeds dist(%d,%d)=%d",
					kind, lvl.Name, bBound, s, v, dsv)
			}
		}
		// Accuracy at the source: bound on dist(s→t).
		bound := jointSum(fw.Potential(s))
		if bound < 0 {
			bound = 0
		}
		errSum += float64(trueDist-bound) / float64(trueDist)
		count++
		if err := sac.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return errSum / float64(count)
}

func TestAdmissibilityAllKindsAllLevels(t *testing.T) {
	for _, kind := range []Kind{None, FedALT, FedALTMax, FedAMPS} {
		for _, lvl := range traffic.Levels() {
			admissible(t, kind, lvl)
		}
	}
}

func TestAMPSTighterThanALT(t *testing.T) {
	// The Fig. 11 headline: Fed-AMPS beats the landmark methods, and
	// Fed-ALT-Max is close to Fed-ALT.
	altErr := admissible(t, FedALT, traffic.Moderate)
	altMaxErr := admissible(t, FedALTMax, traffic.Moderate)
	ampsErr := admissible(t, FedAMPS, traffic.Moderate)
	if ampsErr >= altErr {
		t.Fatalf("Fed-AMPS error %.4f not better than Fed-ALT %.4f", ampsErr, altErr)
	}
	if ampsErr > 0.01 {
		t.Fatalf("Fed-AMPS mean relative error %.4f, paper reports under 1%%", ampsErr)
	}
	if altMaxErr < altErr {
		t.Fatalf("Fed-ALT-Max (%.4f) cannot beat Fed-ALT (%.4f)", altMaxErr, altErr)
	}
	if altMaxErr > altErr*2+0.05 {
		t.Fatalf("Fed-ALT-Max (%.4f) should be close to Fed-ALT (%.4f)", altMaxErr, altErr)
	}
}

func TestFedALTUsesSecureComparisons(t *testing.T) {
	f := testFed(t, traffic.Moderate, 17)
	lm := PrecomputeLandmarks(f, SelectLandmarks(f.Graph(), f.StaticWeights(), 8, 3), 0)
	sac := f.NewSAC()
	fw, _, err := NewPair(FedALT, f, lm, sac, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Engine().Stats().Compares
	fw.Potential(5)
	used := f.Engine().Stats().Compares - before
	if used != int64(len(lm.L)-1) {
		t.Fatalf("Fed-ALT used %d comparisons per estimation, want |L|-1 = %d", used, len(lm.L)-1)
	}
	// Fed-ALT-Max must use none.
	fwMax, _, err := NewPair(FedALTMax, f, lm, sac, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	before = f.Engine().Stats().Compares
	fwMax.Potential(5)
	if f.Engine().Stats().Compares != before {
		t.Fatal("Fed-ALT-Max performed secure comparisons")
	}
}

func TestStaticALTLoosensUnderCongestion(t *testing.T) {
	// Fig. 11 observation (1): static ALT's relative error grows with
	// congestion while federated estimators stay stable.
	relErr := func(lvl traffic.Level) float64 {
		f := testFed(t, lvl, 23)
		g := f.Graph()
		lm := PrecomputeLandmarks(f, SelectLandmarks(g, f.StaticWeights(), 8, 3), 0)
		joint := f.JointWeights()
		rng := rand.New(rand.NewPCG(3, 3))
		var sum float64
		var cnt int
		for i := 0; i < 30; i++ {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			tt := graph.Vertex(rng.IntN(g.NumVertices()))
			if s == tt {
				continue
			}
			d, _ := graph.DijkstraTo(g, joint, s, tt)
			if d >= graph.InfCost || d == 0 {
				continue
			}
			b := lm.StaticALTBound(s, tt, f.P())
			if b > d {
				t.Fatalf("static ALT bound %d exceeds true %d under %s (weights only grow)", b, d, lvl.Name)
			}
			sum += float64(d-b) / float64(d)
			cnt++
		}
		return sum / float64(cnt)
	}
	if free, heavy := relErr(traffic.Free), relErr(traffic.Heavy); heavy <= free {
		t.Fatalf("static ALT error should grow with congestion: free %.4f, heavy %.4f", free, heavy)
	}
}

func TestNewPairErrors(t *testing.T) {
	f := testFed(t, traffic.Moderate, 29)
	if _, _, err := NewPair(FedALT, f, nil, f.NewSAC(), 0, 1); err == nil {
		t.Fatal("Fed-ALT without landmarks accepted")
	}
	if _, _, err := NewPair(FedALTMax, f, nil, nil, 0, 1); err == nil {
		t.Fatal("Fed-ALT-Max without landmarks accepted")
	}
	lm := PrecomputeLandmarks(f, SelectLandmarks(f.Graph(), f.StaticWeights(), 2, 1), 0)
	if _, _, err := NewPair(FedALT, f, lm, nil, 0, 1); err == nil {
		t.Fatal("Fed-ALT without SAC accepted")
	}
	if _, _, err := NewPair(Kind("bogus"), f, lm, nil, 0, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestZeroEstimator(t *testing.T) {
	f := testFed(t, traffic.Moderate, 31)
	fw, bw, err := NewPair(None, f, nil, nil, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Estimator{fw, bw} {
		p := e.Potential(3)
		if len(p) != f.P() {
			t.Fatalf("potential length %d", len(p))
		}
		for _, v := range p {
			if v != 0 {
				t.Fatal("zero estimator returned non-zero")
			}
		}
	}
}
