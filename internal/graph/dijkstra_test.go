package graph

import (
	"math/rand/v2"
	"testing"
)

// bellmanFord is an independent O(VE) reference used to cross-check Dijkstra.
func bellmanFord(g *Graph, w Weights, s Vertex) []int64 {
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
		want := bellmanFord(g, w, 0)
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
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		if v == 3 {
			if res.Parent[v] != NoVertex || res.Dist[v] != 0 {
				t.Fatal("source must have no parent and zero distance")
			}
			continue
		}
		if res.Dist[v] >= InfCost {
			continue
		}
		p, a := res.Parent[v], res.PArc[v]
		if g.Tail(a) != p || g.Head(a) != v {
			t.Fatalf("tree arc %d does not connect %d->%d", a, p, v)
		}
		if res.Dist[p]+w[a] != res.Dist[v] {
			t.Fatalf("tree not tight at %d: %d + %d != %d", v, res.Dist[p], w[a], res.Dist[v])
		}
	}
	// Path extraction ends at source and is connected.
	path := res.Path(17)
	if len(path) == 0 || path[0] != 3 || path[len(path)-1] != 17 {
		t.Fatalf("bad path endpoints: %v", path)
	}
	cost, err := PathCost(g, w, path)
	if err != nil {
		t.Fatal(err)
	}
	if cost != res.Dist[17] {
		t.Fatalf("path cost %d != dist %d", cost, res.Dist[17])
	}
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

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g, w := GenerateRandomDirected(90, 400, 70, seed+100)
		rng := rand.New(rand.NewPCG(seed, 77))
		for i := 0; i < 20; i++ {
			s := Vertex(rng.IntN(g.NumVertices()))
			tt := Vertex(rng.IntN(g.NumVertices()))
			want, _ := DijkstraTo(g, w, s, tt)
			got, path := BidirectionalDijkstra(g, w, s, tt)
			if got != want {
				t.Fatalf("seed %d: bidi(%d,%d) = %d, want %d", seed, s, tt, got, want)
			}
			if got < InfCost {
				c, err := PathCost(g, w, path)
				if err != nil || c != got {
					t.Fatalf("seed %d: bidi path invalid: cost=%d err=%v want=%d", seed, c, err, got)
				}
				if path[0] != s || path[len(path)-1] != tt {
					t.Fatalf("bad endpoints %v for (%d,%d)", path, s, tt)
				}
			}
		}
	}
}

func TestBidirectionalSameSourceTarget(t *testing.T) {
	g, w := GenerateRandomDirected(20, 60, 10, 3)
	d, path := BidirectionalDijkstra(g, w, 7, 7)
	if d != 0 || len(path) != 1 || path[0] != 7 {
		t.Fatalf("self query: d=%d path=%v", d, path)
	}
}

func TestLazySSSPMatchesFullBothDirections(t *testing.T) {
	g, w := GenerateRandomDirected(60, 240, 40, 21)
	root := Vertex(5)
	full := Dijkstra(g, w, root)
	lazy := NewLazySSSP(g, w, root, false)
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 30; i++ {
		v := Vertex(rng.IntN(g.NumVertices()))
		if got := lazy.DistTo(v); got != full.Dist[v] {
			t.Fatalf("lazy forward DistTo(%d) = %d, want %d", v, got, full.Dist[v])
		}
	}
	// Backward: dist from v to root equals forward Dijkstra from v evaluated at root.
	lazyB := NewLazySSSP(g, w, root, true)
	for i := 0; i < 15; i++ {
		v := Vertex(rng.IntN(g.NumVertices()))
		want, _ := DijkstraTo(g, w, v, root)
		if got := lazyB.DistTo(v); got != want {
			t.Fatalf("lazy backward DistTo(%d) = %d, want %d", v, got, want)
		}
	}
	if lazyB.SettledCount() == 0 {
		t.Fatal("backward lazy search settled nothing")
	}
}

func TestLazySSSPIsIncremental(t *testing.T) {
	g, w0 := GenerateGrid(15, 15, 5)
	lazy := NewLazySSSP(g, w0, 0, false)
	lazy.DistTo(1)
	early := lazy.SettledCount()
	lazy.DistTo(Vertex(g.NumVertices() - 1))
	late := lazy.SettledCount()
	if early >= late {
		t.Fatalf("lazy search did not grow: %d then %d", early, late)
	}
	if early > g.NumVertices()/2 {
		t.Fatalf("querying a neighbor settled %d of %d vertices", early, g.NumVertices())
	}
}
