package ch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

func buildTestIndex(t *testing.T, rows, cols int, seed uint64) (*fed.Federation, *Index) {
	t.Helper()
	g, w0 := graph.GenerateGrid(rows, cols, seed)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, seed+1)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, x
}

// chQueryJoint runs a plaintext bidirectional upward search on the overlay
// using the (evaluation-only) joint weights — the reference CH query the
// federated search must agree with.
func chQueryJoint(x *Index, s, t graph.Vertex) int64 {
	type side struct {
		dist map[graph.Vertex]int64
		h    *pairHeap
	}
	mk := func(root graph.Vertex) *side {
		sd := &side{dist: map[graph.Vertex]int64{root: 0}, h: &pairHeap{}}
		sd.h.push(root, 0)
		return sd
	}
	fwd, bwd := mk(s), mk(t)
	run := func(sd *side, forward bool) {
		settled := map[graph.Vertex]bool{}
		for sd.h.Len() > 0 {
			v, dv := sd.h.pop()
			if settled[v] {
				continue
			}
			settled[v] = true
			var arcs []int32
			if forward {
				arcs = x.UpOut(v)
			} else {
				arcs = x.DownIn(v)
			}
			for _, a := range arcs {
				var z graph.Vertex
				if forward {
					z = x.Head(a)
				} else {
					z = x.Tail(a)
				}
				nd := dv + x.JointWeight(a)
				if old, ok := sd.dist[z]; !ok || nd < old {
					sd.dist[z] = nd
					sd.h.push(z, nd)
				}
			}
		}
	}
	run(fwd, true)
	run(bwd, false)
	best := graph.InfCost
	for v, df := range fwd.dist {
		if db, ok := bwd.dist[v]; ok && df+db < best {
			best = df + db
		}
	}
	return best
}

func checkShortcutInvariants(t *testing.T, f *fed.Federation, x *Index) {
	t.Helper()
	g := f.Graph()
	for a := int32(x.numBase); a < int32(x.NumArcs()); a++ {
		arcs := x.UnpackArcs(a)
		// Continuity of the unpacked base path.
		if g.Tail(graph.Arc(arcs[0])) != x.Tail(a) || g.Head(graph.Arc(arcs[len(arcs)-1])) != x.Head(a) {
			t.Fatalf("shortcut %d endpoints do not match its unpacked path", a)
		}
		for i := 0; i+1 < len(arcs); i++ {
			if g.Head(graph.Arc(arcs[i])) != g.Tail(graph.Arc(arcs[i+1])) {
				t.Fatalf("shortcut %d unpacks to a disconnected arc sequence", a)
			}
		}
		// Each silo's partial shortcut weight equals its private cost of the
		// shared witness path — the paper's consistency requirement.
		for p := 0; p < f.P(); p++ {
			var sum int64
			for _, ba := range arcs {
				sum += f.Silo(p).Weight(graph.Arc(ba))
			}
			if sum != x.SiloWeight(p, a) {
				t.Fatalf("shortcut %d silo %d: partial weight %d != witness path cost %d",
					a, p, x.SiloWeight(p, a), sum)
			}
		}
	}
}

func TestBuildProducesValidHierarchy(t *testing.T) {
	f, x := buildTestIndex(t, 9, 9, 31)
	if x.NumShortcuts() == 0 {
		t.Fatal("no shortcuts added")
	}
	// Ranks are a permutation of 0..n-1.
	n := f.Graph().NumVertices()
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		r := x.Rank(graph.Vertex(v))
		if r < 0 || int(r) >= n || seen[r] {
			t.Fatalf("rank %d of vertex %d invalid or duplicated", r, v)
		}
		seen[r] = true
	}
	// Every shortcut's via vertex ranks below both endpoints.
	for a := int32(x.numBase); a < int32(x.NumArcs()); a++ {
		v := x.Via(a)
		if x.Rank(v) >= x.Rank(x.Tail(a)) || x.Rank(v) >= x.Rank(x.Head(a)) {
			t.Fatalf("shortcut %d: via rank %d not below endpoints", a, x.Rank(v))
		}
	}
	checkShortcutInvariants(t, f, x)
	st := x.BuildStatistics()
	if st.SAC.Compares == 0 {
		t.Fatal("construction used no secure comparisons")
	}
	if st.Shortcuts != x.NumShortcuts() {
		t.Fatal("stats shortcut count mismatch")
	}
}

func TestCHQueryMatchesWJRNDijkstra(t *testing.T) {
	f, x := buildTestIndex(t, 10, 10, 37)
	g := f.Graph()
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 60; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		got := chQueryJoint(x, s, tt)
		if got != want {
			t.Fatalf("trial %d: CH dist(%d,%d) = %d, want %d", trial, s, tt, got, want)
		}
	}
}

func TestCHOnRoadLikeNetwork(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(400, 5)
	sets := traffic.SiloWeights(w0, 3, traffic.Heavy, 6)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("trial %d: CH dist(%d,%d) = %d, want %d", trial, s, tt, got, want)
		}
	}
	checkShortcutInvariants(t, f, x)
}

func TestUpdateKeepsQueriesCorrect(t *testing.T) {
	f, x := buildTestIndex(t, 9, 9, 41)
	g := f.Graph()
	rng := rand.New(rand.NewPCG(11, 11))

	for round := 0; round < 3; round++ {
		// Re-sample weights of a random subset of arcs on every silo: some
		// rise, some fall back toward free flow.
		changed := pickArcs(f, rng, g.NumArcs()/10)
		f = nextVersion(f, changed, func(a graph.Arc, ws []int64) {
			for p := range ws {
				ws[p] = max(int64(float64(f.StaticWeights()[a])*(0.8+rng.Float64()*1.2)), 1)
			}
		})
		var stats UpdateStats
		x, stats = mustUpdate(t, x, f, changed)
		if stats.ChangedArcs != len(changed) {
			t.Fatalf("stats.ChangedArcs = %d", stats.ChangedArcs)
		}
		joint := f.JointWeights()
		for trial := 0; trial < 40; trial++ {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			tt := graph.Vertex(rng.IntN(g.NumVertices()))
			want, _ := graph.DijkstraTo(g, joint, s, tt)
			if got := chQueryJoint(x, s, tt); got != want {
				t.Fatalf("round %d trial %d: after update, CH dist(%d,%d) = %d, want %d",
					round, trial, s, tt, got, want)
			}
		}
		checkShortcutInvariants(t, f, x)
	}
}

func TestUpdateNoChangesIsCheap(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 43)
	_, stats := mustUpdate(t, x, f, nil)
	if stats.RecomputedShortcuts != 0 || stats.ReverifiedVertices != 0 || stats.AddedShortcuts != 0 {
		t.Fatalf("no-op update did work: %+v", stats)
	}
}

func TestUpdateCostScalesWithChangeSize(t *testing.T) {
	f, x := buildTestIndex(t, 10, 10, 47)
	g := f.Graph()
	rng := rand.New(rand.NewPCG(13, 13))
	change := func(frac float64) (st UpdateStats) {
		changed := pickArcs(f, rng, int(frac*float64(g.NumArcs())))
		f = nextVersion(f, changed, func(a graph.Arc, ws []int64) {
			for p := range ws {
				ws[p] = f.StaticWeights()[a] + int64(rng.IntN(10000)) + 1
			}
		})
		x, st = mustUpdate(t, x, f, changed)
		return st
	}
	small := change(0.01)
	large := change(0.20)
	if large.SAC.Compares <= small.SAC.Compares {
		t.Fatalf("larger change should cost more comparisons: %d vs %d",
			large.SAC.Compares, small.SAC.Compares)
	}
	if small.SAC.Compares >= x.BuildStatistics().SAC.Compares {
		t.Fatalf("a 1%% update (%d comparisons) should be cheaper than construction (%d)",
			small.SAC.Compares, x.BuildStatistics().SAC.Compares)
	}
}

func TestDegreeOrderingBuildsCorrectIndex(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 97)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 98)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildWith(f, Params{Ordering: OrderDegree})
	if err != nil {
		t.Fatal(err)
	}
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(17, 17))
	for trial := 0; trial < 40; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("degree ordering: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
	checkShortcutInvariants(t, f, x)
}

func TestWitnessCapTradeoff(t *testing.T) {
	// A tiny witness cap adds conservative shortcuts: the index grows but
	// queries must remain exact.
	g, w0 := graph.GenerateGrid(7, 7, 103)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 104)
	mk := func(cap int) (*fed.Federation, *Index) {
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 105})
		if err != nil {
			t.Fatal(err)
		}
		x, err := BuildWith(f, Params{WitnessCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		return f, x
	}
	fTiny, tiny := mk(2)
	_, normal := mk(0) // default cap
	if tiny.NumShortcuts() <= normal.NumShortcuts() {
		t.Fatalf("tiny cap (%d shortcuts) should exceed default (%d)",
			tiny.NumShortcuts(), normal.NumShortcuts())
	}
	joint := fTiny.JointWeights()
	rng := rand.New(rand.NewPCG(19, 19))
	for trial := 0; trial < 30; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(tiny, s, tt); got != want {
			t.Fatalf("tiny witness cap: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}

func TestBuildWithRejectsUnknownOrdering(t *testing.T) {
	g, w0 := graph.GenerateGrid(4, 4, 107)
	sets := traffic.SiloWeights(w0, 2, traffic.Moderate, 108)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 109})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWith(f, Params{Ordering: Ordering("bogus")}); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}
