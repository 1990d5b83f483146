package graph

import (
	"math/rand/v2"
	"testing"
)

// bellmanFord is an independent O(VE) reference used to cross-check Search:
// distances from s, or with backward set distances to s.
func bellmanFord(g *Graph, w Weights, s Vertex, backward bool) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = InfCost
	}
	dist[s] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for a := 0; a < g.NumArcs(); a++ {
			u, v := g.Tail(Arc(a)), g.Head(Arc(a))
			if backward {
				u, v = v, u
			}
			if dist[u] < InfCost && dist[u]+w[a] < dist[v] {
				dist[v] = dist[u] + w[a]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g, w := GenerateRandomDirected(60, 240, 50, seed)
		want := bellmanFord(g, w, 0, false)
		got := Dijkstra(g, w, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if got.Dist[v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, want %d", seed, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestDijkstraTreeIsConsistent(t *testing.T) {
	g, w := GenerateRandomDirected(80, 320, 50, 42)
	res := Dijkstra(g, w, 3)
	if res.Dist[3] != 0 {
		t.Fatal("source must have zero distance")
	}
	checkTree(t, g, w, res, 3, false)
}

func TestDijkstraToMatchesFull(t *testing.T) {
	g, w := GenerateRandomDirected(70, 280, 90, 5)
	full := Dijkstra(g, w, 10)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 25; i++ {
		tgt := Vertex(rng.IntN(g.NumVertices()))
		d, path := DijkstraTo(g, w, 10, tgt)
		if d != full.Dist[tgt] {
			t.Fatalf("DijkstraTo(10,%d) = %d, want %d", tgt, d, full.Dist[tgt])
		}
		if d < InfCost {
			c, err := PathCost(g, w, path)
			if err != nil || c != d {
				t.Fatalf("path invalid: cost=%d err=%v want=%d", c, err, d)
			}
		}
	}
}

// checkTree holds x's PArc to a shortest-path tree of its Dist: every
// reached vertex but the root hangs off its parent by a tight arc pointing
// the search's way, and Path walks that tree between the root and v.
func checkTree(t *testing.T, g *Graph, w Weights, x *Search, root Vertex, backward bool) {
	t.Helper()
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		p, a := x.Parent(v), x.PArc[v]
		if v == root || x.Dist[v] >= InfCost {
			if p != NoVertex || a != NoArc {
				t.Fatalf("root or unreached vertex %d has tree arc %d", v, a)
			}
			continue
		}
		from, to := g.Tail(a), g.Head(a)
		if backward {
			from, to = to, from
		}
		if from != p || to != v {
			t.Fatalf("tree arc %d does not lead from parent %d to %d (backward %v)", a, p, v, backward)
		}
		if x.Dist[p]+w[a] != x.Dist[v] {
			t.Fatalf("tree not tight at %d: %d + %d != %d", v, x.Dist[p], w[a], x.Dist[v])
		}
		path := x.Path(v)
		ends := [2]Vertex{root, v}
		if backward {
			ends = [2]Vertex{v, root}
		}
		if path[0] != ends[0] || path[len(path)-1] != ends[1] {
			t.Fatalf("path %v does not run %d -> %d", path, ends[0], ends[1])
		}
		if cost, err := PathCost(g, w, path); err != nil || cost != x.Dist[v] {
			t.Fatalf("path to %d costs %d (err %v), dist %d", v, cost, err, x.Dist[v])
		}
	}
}

// TestSearchMatchesBellmanFord holds Search, forward and backward, run to the
// end through Next and lazily through DistTo in random target order, to the
// Bellman–Ford reference: equal distances, Next in non-decreasing Dist with
// every parent settled before its child, and PArc a shortest-path tree.
func TestSearchMatchesBellmanFord(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, w := GenerateRandomDirected(60, 240, 50, seed)
		n := g.NumVertices()
		root := Vertex(seed * 7 % uint64(n))
		for _, backward := range []bool{false, true} {
			want := bellmanFord(g, w, root, backward)

			x := NewSearch(g, w, root, backward)
			settled := make([]bool, n)
			last := int64(0)
			for v, ok := x.Next(); ok; v, ok = x.Next() {
				if x.Dist[v] < last {
					t.Fatalf("seed %d backward %v: %d settles at %d after %d", seed, backward, v, x.Dist[v], last)
				}
				last = x.Dist[v]
				if p := x.Parent(v); v != root && !settled[p] {
					t.Fatalf("seed %d backward %v: %d settles before its parent %d", seed, backward, v, p)
				}
				settled[v] = true
			}
			for v := range want {
				if x.Dist[v] != want[v] || settled[v] != (want[v] < InfCost) {
					t.Fatalf("seed %d backward %v: dist[%d] = %d (settled %v), want %d",
						seed, backward, v, x.Dist[v], settled[v], want[v])
				}
			}
			checkTree(t, g, w, x, root, backward)

			lazy := NewSearch(g, w, root, backward)
			rng := rand.New(rand.NewPCG(seed, 4))
			for _, v := range rng.Perm(n) {
				if got := lazy.DistTo(Vertex(v)); got != want[v] {
					t.Fatalf("seed %d backward %v: DistTo(%d) = %d, want %d", seed, backward, v, got, want[v])
				}
			}
			checkTree(t, g, w, lazy, root, backward)
		}
	}
}

// TestSearchIsIncremental checks that DistTo settles no further than it
// must: after a neighbour of the root, the far corner of a grid is still
// unreached, and a later DistTo resumes the same search. A vertex no arc
// reaches runs the search out and reports InfCost with no path.
func TestSearchIsIncremental(t *testing.T) {
	g, w := GenerateGrid(15, 15, 5)
	n := g.NumVertices()
	far := Vertex(n - 1)
	x := NewSearch(g, w, 0, false)
	x.DistTo(1)
	reached := 0
	for _, d := range x.Dist {
		if d < InfCost {
			reached++
		}
	}
	if x.Dist[far] < InfCost || reached > n/2 {
		t.Fatalf("settling a neighbour reached %d of %d vertices, the far corner at %d", reached, n, x.Dist[far])
	}
	if got, want := x.DistTo(far), Dijkstra(g, w, 0).Dist[far]; got != want {
		t.Fatalf("resumed DistTo(%d) = %d, want %d", far, got, want)
	}

	b := NewBuilder(3)
	b.AddArc(0, 1)
	x = NewSearch(b.Build(), Weights{4}, 0, false)
	if d, path := x.DistTo(2), x.Path(2); d != InfCost || path != nil {
		t.Fatalf("unreachable vertex: dist %d, path %v", d, path)
	}
	if _, ok := x.Next(); ok {
		t.Fatal("Next settles a vertex after the search ran out")
	}
}
