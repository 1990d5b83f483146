package fed

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

func testFederation(t *testing.T, p int, mode mpc.Mode) *Federation {
	t.Helper()
	g, w0 := graph.GenerateGrid(8, 8, 11)
	sets := traffic.SiloWeights(w0, p, traffic.Moderate, 5)
	f, err := New(g, w0, sets, mpc.Params{Mode: mode, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFederationBasics(t *testing.T) {
	f := testFederation(t, 3, mpc.ModeIdeal)
	if f.P() != 3 {
		t.Fatalf("P = %d", f.P())
	}
	if f.Silo(1).ID() != 1 {
		t.Fatal("silo id wrong")
	}
	if f.Graph().NumVertices() != 64 {
		t.Fatal("graph lost")
	}
	if len(f.StaticWeights()) != f.Graph().NumArcs() {
		t.Fatal("static weights lost")
	}
}

func TestArcPartialAndJointWeights(t *testing.T) {
	f := testFederation(t, 3, mpc.ModeIdeal)
	joint := f.JointWeights()
	for a := 0; a < f.Graph().NumArcs(); a += 7 {
		part := f.ArcPartial(graph.Arc(a))
		var sum int64
		for p := 0; p < f.P(); p++ {
			if part[p] != f.Silo(p).Weight(graph.Arc(a)) {
				t.Fatalf("partial[%d] != silo weight at arc %d", p, a)
			}
			sum += part[p]
		}
		if sum != joint[a] {
			t.Fatalf("joint weight mismatch at arc %d: %d != %d", a, sum, joint[a])
		}
	}
}

func TestSACMatchesPlaintext(t *testing.T) {
	for _, mode := range []mpc.Mode{mpc.ModeIdeal, mpc.ModeProtocol} {
		f := testFederation(t, 3, mode)
		sac := f.NewSAC()
		a := Partial{100, 200, 300} // joint 600
		b := Partial{250, 250, 101} // joint 601
		got := sac.LessBatch([][2]Partial{{a, b}, {b, a}, {a, a}})
		if !got[0] || got[1] || got[2] {
			t.Fatalf("mode %v: [600<601 601<600 600<600] = %v", mode, got)
		}
		if sac.Err() != nil {
			t.Fatal(sac.Err())
		}
		if st := f.Engine().Stats(); st.Compares != 3 || st.Rounds != mpc.RoundsPerCompare {
			t.Fatalf("mode %v: one instance of 3 counted as %+v", mode, st)
		}
	}
}

// TestWithDecideSeesEveryInstance: a view's wrapper decides for NewSAC on the
// view and on its forks, the view keeps the engine and the weights, and the
// federation it was taken from stays unwrapped.
func TestWithDecideSeesEveryInstance(t *testing.T) {
	f := testFederation(t, 3, mpc.ModeIdeal)
	var widths []int
	v := f.WithDecide(func(inner Decide) Decide {
		return func(diffs [][]int64) ([]bool, error) {
			widths = append(widths, len(diffs))
			return inner(diffs)
		}
	})
	if !v.SameWeights(f) || v.Engine() != f.Engine() {
		t.Fatal("the view does not share the weights and the engine")
	}
	a, b := Partial{1, 1, 1}, Partial{2, 2, 2}
	if got := v.NewSAC().LessBatch([][2]Partial{{a, b}, {b, a}}); !got[0] || got[1] {
		t.Fatalf("wrapped bits %v", got)
	}
	fork := v.Fork()
	if !fork.SameWeights(f) {
		t.Fatal("a fork of the view lost the weights")
	}
	fork.NewSAC().LessDiffs([][]int64{{-1, 0, 0}})
	f.NewSAC().LessDiffs([][]int64{{-1, 0, 0}})
	if !reflect.DeepEqual(widths, []int{2, 1}) {
		t.Fatalf("wrapper saw instance widths %v, want [2 1]", widths)
	}
	if f.Engine().Stats().Compares != 3 || fork.Engine().Stats().Compares != 1 {
		t.Fatal("the wrapper must decide on the engine it wraps")
	}
}

// TestWithWeightsIsANewVersion: a WithWeights view reads its own sets and
// leaves the federation it came from untouched; it shares the engine, so its
// forks continue the same fork sequence; and At puts a fork's engine over the
// view's weights.
func TestWithWeightsIsANewVersion(t *testing.T) {
	f := testFederation(t, 3, mpc.ModeIdeal)
	sets := make([]graph.Weights, f.P())
	for p := range sets {
		sets[p] = slices.Clone(f.Silo(p).Weights())
	}
	sets[1][4] = f.Silo(1).Weight(4) + 1000
	next := f.WithWeights(sets)
	if next.SameWeights(f) || next.Engine() != f.Engine() {
		t.Fatal("a new version shares the weights or lost the engine")
	}
	if next.Silo(1).Weight(4) != f.Silo(1).Weight(4)+1000 || next.Silo(1).ID() != 1 {
		t.Fatal("the new version does not read its own weights")
	}
	fork := f.Fork()
	at := fork.At(next)
	if !at.SameWeights(next) || at.Engine() != fork.Engine() || at.Silo(1).Weight(4) != next.Silo(1).Weight(4) {
		t.Fatal("At does not pair the fork's engine with the version's weights")
	}
}

func TestPartialHelpers(t *testing.T) {
	a := Partial{1, 2, 3}
	b := Partial{10, 20, 30}
	s := SumPartial(a, b)
	if s[0] != 11 || s[2] != 33 {
		t.Fatalf("SumPartial = %v", s)
	}
	c := ClonePartial(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("ClonePartial aliased")
	}
	AddPartial(a, b)
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("AddPartial = %v", a)
	}
	f := testFederation(t, 4, mpc.ModeIdeal)
	z := f.ZeroPartial()
	if len(z) != 4 || z[0] != 0 {
		t.Fatalf("ZeroPartial = %v", z)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	g, w0 := graph.GenerateGrid(4, 4, 1)
	if _, err := New(g, w0, []graph.Weights{w0}, mpc.Params{}); err == nil {
		t.Fatal("single silo accepted")
	}
	bad := make(graph.Weights, g.NumArcs())
	if _, err := New(g, w0, []graph.Weights{w0, bad}, mpc.Params{}); err == nil {
		t.Fatal("zero-weight silo accepted")
	}
	if _, err := New(g, bad, []graph.Weights{w0, w0}, mpc.Params{}); err == nil {
		t.Fatal("bad static weights accepted")
	}
}

// TestNewBoundsSiloCount: maxSilos silos make a federation whose engine
// accepts a share at the discipline's bound, 2·MaxPathCost − 1; one more
// silo is refused with an error that names the bound.
func TestNewBoundsSiloCount(t *testing.T) {
	g, w0 := graph.GenerateGrid(3, 3, 1)
	sets := make([]graph.Weights, maxSilos+1)
	for p := range sets {
		sets[p] = w0
	}
	_, err := New(g, w0, sets, mpc.Params{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxSilos)) {
		t.Fatalf("%d silos: err = %v, want a refusal naming %d", len(sets), err, maxSilos)
	}
	f, err := New(g, w0, sets[:maxSilos], mpc.Params{})
	if err != nil {
		t.Fatal(err)
	}
	diffs := make([]int64, maxSilos)
	for p := range diffs {
		diffs[p] = 2*graph.MaxPathCost - 1
		if p%2 == 1 {
			diffs[p] = -diffs[p]
		}
	}
	diffs[0]--
	if less, err := f.Engine().Compare(diffs); err != nil || !less {
		t.Fatalf("%d silos at ±(2·MaxPathCost − 1): less = %v, err = %v", maxSilos, less, err)
	}
}

// TestEarliestMinBracket drives the bracket with a plaintext less over
// random slates full of ties, empty and one-entry slates among them. Every
// call must carry exactly the (later, earlier) pairs of the survivors of
// every slate that still has two or more, one call per level; the winner is
// the earliest minimum of a left-to-right fold.
func TestEarliestMinBracket(t *testing.T) {
	joint := func(x Partial) int64 { return x[0] + x[1] }
	rng := rand.New(rand.NewPCG(50, 7))
	cases := [][][]Partial{nil, {{}}, {{}, {{1, 2}}, {}}}
	for range 300 {
		slates := make([][]Partial, rng.IntN(5))
		for si := range slates {
			for range rng.IntN(11) {
				slates[si] = append(slates[si], Partial{rng.Int64N(3), rng.Int64N(3)})
			}
		}
		cases = append(cases, slates)
	}
	for ci, slates := range cases {
		survivors := make([][]Partial, len(slates))
		longest := 0
		for si, slate := range slates {
			survivors[si] = slices.Clone(slate)
			longest = max(longest, len(slate))
		}
		calls := 0
		less := func(pairs [][2]Partial) []bool {
			calls++
			var want [][2]Partial
			for _, sv := range survivors {
				for i := 0; i+1 < len(sv); i += 2 {
					want = append(want, [2]Partial{sv[i+1], sv[i]})
				}
			}
			if len(want) == 0 {
				t.Fatalf("case %d: less called with no slate of two", ci)
			}
			if len(pairs) != len(want) {
				t.Fatalf("case %d call %d: %d pairs, want %d", ci, calls, len(pairs), len(want))
			}
			bits := make([]bool, len(pairs))
			for i, pr := range pairs {
				if &pr[0][0] != &want[i][0][0] || &pr[1][0] != &want[i][1][0] {
					t.Fatalf("case %d call %d: pair %d is not (later, earlier) of the survivors", ci, calls, i)
				}
				bits[i] = joint(pr[0]) < joint(pr[1])
			}
			k := 0
			for si, sv := range survivors {
				if len(sv) < 2 {
					continue
				}
				var next []Partial
				for i := 0; i+1 < len(sv); i += 2 {
					win := sv[i]
					if bits[k] {
						win = sv[i+1]
					}
					next, k = append(next, win), k+1
				}
				if len(sv)%2 == 1 {
					next = append(next, sv[len(sv)-1])
				}
				survivors[si] = next
			}
			return bits
		}
		got := EarliestMin(less, slates)
		for si, slate := range slates {
			want := 0
			for i := range slate {
				if joint(slate[i]) < joint(slate[want]) {
					want = i
				}
			}
			if got[si] != want {
				t.Fatalf("case %d slate %d: winner %d, fold minimum %d", ci, si, got[si], want)
			}
		}
		levels := 0
		for 1<<levels < longest {
			levels++
		}
		if calls != levels {
			t.Fatalf("case %d: %d calls for a longest slate of %d, want %d", ci, calls, longest, levels)
		}
	}
}
