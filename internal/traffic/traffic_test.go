package traffic

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestSiloWeightsRespectCongestionModel(t *testing.T) {
	g, w0 := graph.GenerateGrid(10, 10, 2)
	const p = 3
	sets := SiloWeights(w0, p, Moderate, 7)
	if len(sets) != p {
		t.Fatalf("got %d silos", len(sets))
	}
	congestedArcs := 0
	for a := 0; a < g.NumArcs(); a++ {
		anyChanged := false
		for _, w := range sets {
			if err := graph.ValidateWeights(g, w); err != nil {
				t.Fatal(err)
			}
			if w[a] < w0[a] {
				t.Fatalf("arc %d: congestion decreased weight %d -> %d", a, w0[a], w[a])
			}
			if float64(w[a]) > float64(w0[a])*(1+Moderate.ThetaMax)+1 {
				t.Fatalf("arc %d: weight %d exceeds (1+θmax)·w0 = %.0f", a, w[a], float64(w0[a])*1.5)
			}
			if w[a] != w0[a] {
				anyChanged = true
			}
		}
		if anyChanged {
			congestedArcs++
		}
	}
	want := Moderate.Beta * float64(g.NumArcs())
	if math.Abs(float64(congestedArcs)-want) > want*0.3+5 {
		t.Fatalf("congested arcs = %d, expected about %.0f", congestedArcs, want)
	}
}

func TestSiloWeightsIndependentAcrossSilos(t *testing.T) {
	_, w0 := graph.GenerateGrid(10, 10, 2)
	sets := SiloWeights(w0, 2, Heavy, 9)
	same := true
	for a := range w0 {
		if sets[0][a] != sets[1][a] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("silos observed identical congestion noise")
	}
}

func TestFreeLevelKeepsStaticWeights(t *testing.T) {
	_, w0 := graph.GenerateGrid(6, 6, 3)
	sets := SiloWeights(w0, 2, Free, 1)
	for a := range w0 {
		if sets[0][a] != w0[a] || sets[1][a] != w0[a] {
			t.Fatalf("free traffic changed arc %d", a)
		}
	}
}

func TestSiloWeightsDeterministic(t *testing.T) {
	_, w0 := graph.GenerateGrid(6, 6, 3)
	a := SiloWeights(w0, 3, Moderate, 42)
	b := SiloWeights(w0, 3, Moderate, 42)
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestLevelsOrdering(t *testing.T) {
	ls := Levels()
	if len(ls) != 4 || ls[0].Name != "Free" || ls[3].Name != "Heavy" {
		t.Fatalf("levels = %v", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].Beta < ls[i-1].Beta || ls[i].ThetaMax < ls[i-1].ThetaMax {
			t.Fatal("levels not increasing in severity")
		}
	}
}

func TestSimulateAndEstimate(t *testing.T) {
	g, w0 := graph.GenerateGrid(12, 12, 4)
	wTrue := GroundTruth(w0, Heavy, 8)
	obs := Simulate(g, wTrue, w0, 600, 0.2, 10)
	if obs.NumTrajectories() == 0 {
		t.Fatal("no trajectories recorded")
	}

	full := obs.Estimate(obs.Fraction(1.0))
	quarter := obs.Estimate(obs.Fraction(0.25))
	if err := graph.ValidateWeights(g, full); err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateWeights(g, quarter); err != nil {
		t.Fatal(err)
	}

	// More data means a better estimate of the true weights on average.
	errFor := func(w graph.Weights) float64 {
		var sum float64
		for a := range w {
			sum += math.Abs(float64(w[a]-wTrue[a])) / float64(wTrue[a])
		}
		return sum / float64(len(w))
	}
	if errFor(full) >= errFor(quarter) {
		t.Fatalf("full data error %.4f not better than quarter data error %.4f",
			errFor(full), errFor(quarter))
	}
}

func TestEstimateFallsBackToStatic(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 5)
	wTrue := GroundTruth(w0, Heavy, 6)
	obs := Simulate(g, wTrue, w0, 3, 0.1, 7) // almost no coverage
	w := obs.Estimate(obs.Fraction(1.0))
	fallbacks := 0
	for a := range w {
		if w[a] == w0[a] {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatal("expected unobserved arcs to fall back to w0")
	}
}

func TestSplitDisjointCoversAll(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 5)
	wTrue := GroundTruth(w0, Moderate, 6)
	obs := Simulate(g, wTrue, w0, 100, 0.1, 7)
	shares := obs.Split(3)
	seen := map[int]bool{}
	total := 0
	for _, sh := range shares {
		for _, idx := range sh {
			if seen[idx] {
				t.Fatalf("trajectory %d in two shares", idx)
			}
			seen[idx] = true
			total++
		}
	}
	if total != obs.NumTrajectories() {
		t.Fatalf("split covers %d of %d trajectories", total, obs.NumTrajectories())
	}
}

func TestParseLevel(t *testing.T) {
	for _, c := range []struct {
		name string
		want Level
	}{{"free", Free}, {"Slight", Slight}, {"MODERATE", Moderate}, {"heavy", Heavy}} {
		got, err := ParseLevel(c.name)
		if err != nil || got != c.want {
			t.Fatalf("ParseLevel(%q) = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseLevel("gridlock"); err == nil {
		t.Fatal("unknown level accepted")
	}
}
