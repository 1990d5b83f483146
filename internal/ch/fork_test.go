package ch

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
)

// TestForkUpdatesBesideOriginal: Update on a Fork over new weights leaves the
// original index — its decisions and its partials — as it was, and the fork
// ends exactly where an in-place Update of a twin index ends.
func TestForkUpdatesBesideOriginal(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 81)
	for _, custom := range []bool{false, true} {
		derive := func(f *fed.Federation) *Index {
			t.Helper()
			if !custom {
				x, err := Build(f)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			sk, err := BuildSkeleton(g)
			if err != nil {
				t.Fatal(err)
			}
			x, err := Customize(f, sk)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
		f, twinF := customizeFederation(t, g, w0, 82), customizeFederation(t, g, w0, 82)
		x, twin := derive(f), derive(twinF)
		before, partials := indexBytes(t, x), arcPartials(x)

		changed := jiggleWeights(twinF, rand.New(rand.NewPCG(83, 83)), 0.15)
		next := f.WithWeights(twinF.SnapshotWeights())
		y := x.Fork(next)
		st, err := y.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Update(changed); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(indexBytes(t, y), indexBytes(t, twin)) || !slices.EqualFunc(arcPartials(y), arcPartials(twin), slices.Equal) {
			t.Fatalf("customized %v: the fork's update differs from the in-place one", custom)
		}
		if !slices.Equal(indexBytes(t, x), before) || !slices.EqualFunc(arcPartials(x), partials, slices.Equal) {
			t.Fatalf("customized %v: updating the fork changed the original (%d shortcuts added)", custom, st.AddedShortcuts)
		}
		checkExactDistances(t, f, x, 40, 84, "original")
		checkExactDistances(t, next, y, 40, 85, "fork")
	}
}
