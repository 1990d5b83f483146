package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
)

// unitFederation is g with every arc weighing 1 in each of three silos, so
// that many paths tie and a lower bound can equal μ.
func unitFederation(t *testing.T, g *graph.Graph) *fed.Federation {
	t.Helper()
	w := make(graph.Weights, g.NumArcs())
	for a := range w {
		w[a] = 1
	}
	f, err := fed.New(g, w, []graph.Weights{w, w, w}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSideMeetsOtherSourceBeforeItRuns: on the path 0–1–2–3–4 every forward
// step stages one path into an empty queue and so makes no comparison; the
// forward side of the route 0→4 settles all five vertices before the
// backward side first runs, and meets the backward side's source 4 while it
// is still only queued. That path has no arc: the meeting is at 4 itself.
// Without an estimator the backward side then settles 4 and walks back until
// its key reaches μ: 9 settles. Under RouteOptions (Fed-AMPS) 4's backward
// key is the exact distance, equal to μ, so the backward side stops before
// it settles its own source, and the answer's backward chain is empty: 5
// settles.
func TestSideMeetsOtherSourceBeforeItRuns(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := graph.Vertex(0); v < 4; v++ {
		b.AddEdge(v, v+1)
	}
	f := unitFederation(t, b.Build())
	for _, c := range []struct {
		opt     Options
		settles int
	}{
		{Options{}, 9},
		{Options{Queue: pq.KindTMTree}, 9},
		{RouteOptions(nil), 5},
	} {
		res, st, err := fx(f).engine(t, c.opt).SPSP(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		fx(f).checkSPSP(t, res, 0, 4)
		if st.SettledVertices != c.settles {
			t.Fatalf("%+v: %d settles, want %d", c.opt, st.SettledVertices, c.settles)
		}
	}
}

// TestFoldPlaysEveryFreshMu scripts the two sides of a route as lockstep
// threads over plaintext comparisons. Thread 1 folds four candidates, the
// first being W, while μ is unset: two tournament levels. Thread 0 sets μ to
// 30 between the levels (one candidate, no comparison), and while W then
// plays 30 it folds 10 against 30 in the same tick, and sets μ to 10 first,
// because threads resume in order. W must play 10 too: μ ends at the least
// of all candidates and never rises. With W = 20 a fold that played only the
// first fresh μ would set μ to 20; with W = 5 one that took a fresh μ for an
// old winner would keep 10.
func TestFoldPlaysEveryFreshMu(t *testing.T) {
	p := func(v int64) fed.Partial { return fed.Partial{v} }
	for _, w := range []int64{20, 5} {
		var b bestJoint
		var trail []int64 // μ after each of thread 0's steps
		lockstep(plainCmp{}, nil,
			func(c comparator) {
				c.LessBatch([][2]fed.Partial{{p(0), p(0)}}) // beside thread 1's first level
				b.fold(c, []fed.Partial{p(30)}, []meeting{{fv: 30}})
				trail = append(trail, b.mu[0])
				c.LessBatch([][2]fed.Partial{{p(0), p(0)}}) // beside its second level
				b.fold(c, []fed.Partial{p(10)}, []meeting{{fv: 10}})
				trail = append(trail, b.mu[0])
			},
			func(c comparator) {
				b.fold(c, []fed.Partial{p(w), p(40), p(50), p(60)},
					[]meeting{{fv: graph.Vertex(w)}, {fv: 40}, {fv: 50}, {fv: 60}})
			})
		want := min(w, 10)
		if trail = append(trail, b.mu[0]); b.mu[0] != want || b.meet.fv != graph.Vertex(want) {
			t.Fatalf("W=%d: μ went %v with meeting at %d, want it to end at %d", w, trail, b.meet.fv, want)
		}
		for i := 1; i < len(trail); i++ {
			if trail[i] > trail[i-1] {
				t.Fatalf("W=%d: μ rose: %v", w, trail)
			}
		}
	}
}

// TestReconstructEndsChainsOnlyAtSources: on the path 0–1–2–3–4 a forward
// side that settled every vertex and met the backward source 4 while it was
// only queued has a route with an empty backward chain. A meeting that
// points at any other vertex its side never settled is a broken chain, and
// reconstruct panics rather than answer a path that misses s or t.
func TestReconstructEndsChainsOnlyAtSources(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := graph.Vertex(0); v < 4; v++ {
		b.AddEdge(v, v+1)
	}
	f := unitFederation(t, b.Build())
	e := fx(f).engine(t, Options{})
	g := f.Graph()
	fs := map[graph.Vertex]*label{0: {parent: graph.NoVertex, parc: -1}}
	for v := graph.Vertex(1); v <= 4; v++ {
		fs[v] = &label{parent: v - 1, parc: int32(g.FindArc(v-1, v))}
	}
	bs := map[graph.Vertex]*label{}
	exp := &flatExpander{f: f}
	if got := e.reconstruct(exp, 0, 4, fs, bs, meeting{fv: 4, crossArc: -1, bv: 4}); !reflect.DeepEqual(got, []graph.Vertex{0, 1, 2, 3, 4}) {
		t.Fatalf("meeting at the queued target: path %v", got)
	}
	noTwo := map[graph.Vertex]*label{0: fs[0], 1: fs[1], 3: fs[3], 4: fs[4]}
	for _, c := range []struct {
		fs map[graph.Vertex]*label
		m  meeting
	}{
		{fs, meeting{fv: 2, crossArc: int32(g.FindArc(2, 3)), bv: 3}}, // 3 has no backward label
		{noTwo, meeting{fv: 4, crossArc: -1, bv: 4}},                  // 2 has no forward label
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("meeting %+v over a broken chain did not panic", c.m)
				}
			}()
			e.reconstruct(exp, 0, 4, c.fs, bs, c.m)
		}()
	}
}

// TestRandomUnitRoutesMatchDijkstra holds routes to plaintext Dijkstra on
// small random graphs of unit weights, where ties between μ, lower bounds
// and queued keys are the rule: flat and over a customized index, with and
// without Fed-AMPS, pruned and not, batched and not.
func TestRandomUnitRoutesMatchDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 1))
	type world struct {
		f   *fed.Federation
		idx *ch.Index
	}
	worlds := make([]world, 60)
	for i := range worlds {
		n := 2 + rng.IntN(11)
		b := graph.NewBuilder(n)
		arcs := map[[2]graph.Vertex]bool{}
		for k := rng.IntN(3 * n); k >= 0; k-- {
			u, v := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
			if u != v && !arcs[[2]graph.Vertex{u, v}] {
				arcs[[2]graph.Vertex{u, v}] = true
				b.AddArc(u, v)
			}
		}
		g := b.Build()
		f := unitFederation(t, g)
		sk, err := ch.BuildSkeleton(g)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ch.Customize(f, sk)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = world{f, idx}
	}
	for _, indexed := range []bool{false, true} {
		for _, est := range []lb.Kind{lb.None, lb.FedAMPS} {
			for _, prune := range []bool{false, true} {
				for _, batched := range []bool{false, true} {
					t.Run(fmt.Sprintf("index=%v/%s/prune=%v/batched=%v", indexed, est, prune, batched), func(t *testing.T) {
						for _, w := range worlds {
							opt := Options{Queue: pq.KindTMTree, Estimator: est, BatchedMPC: batched, PruneStaged: prune}
							if indexed {
								opt.Index = w.idx
							}
							e := fx(w.f).engine(t, opt)
							n := w.f.Graph().NumVertices()
							for q := 0; q < 8; q++ {
								s, tt := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
								res, _, err := e.SPSP(s, tt)
								if err != nil {
									t.Fatal(err)
								}
								fx(w.f).checkSPSP(t, res, s, tt)
							}
						}
					})
				}
			}
		}
	}
}
