package ch

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestForkUpdatesBesideOriginal: Update to a new version leaves the original
// index — its decisions and its partials — as it was, and both answer exactly
// at their own versions.
func TestForkUpdatesBesideOriginal(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 81)
	for _, custom := range []bool{false, true} {
		f := customizeFederation(t, g, w0, 82)
		x, err := Build(f)
		if custom {
			var sk *Skeleton
			if sk, err = BuildSkeleton(g); err == nil {
				x, err = Customize(f, sk)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		before, partials := indexBytes(t, x), arcPartials(x)

		next, changed := jiggleWeights(f, rand.New(rand.NewPCG(83, 83)), 0.15)
		y, st := mustUpdate(t, x, next, changed)
		if !slices.Equal(indexBytes(t, x), before) || !slices.EqualFunc(arcPartials(x), partials, slices.Equal) {
			t.Fatalf("customized %v: the update changed the original (%d shortcuts added)", custom, st.AddedShortcuts)
		}
		checkExactDistances(t, f, x, 40, 84, "original")
		checkExactDistances(t, next, y, 40, 85, "fork")
	}
}
