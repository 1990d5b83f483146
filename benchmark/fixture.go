package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	fedroad "repro"
	"repro/internal/graph"
)

// worldSeed fixes the road network, the congestion and the query universes.
// They do not depend on --seed, so that a run measures the same set of
// queries whatever its seed and per-op counters repeat exactly; --seed
// decides the order in which clients walk their universe, the Zipf draws and
// the traffic batches (see README.md, "What --seed changes").
const worldSeed = 7

const (
	silos        = 3
	roundTimeout = 5 * time.Second // a hang becomes a counted failure
)

// sizes are the knobs that differ between the real run and the tier-1 smoke.
type sizes struct {
	roadN              int // route_wire, route_hot, knn_mem
	gridRows, gridCols int // refresh_grid
	universe           int // OD pairs (or kNN sources) per client
	hotPairs           int // route_hot Zipf universe
	cacheCap           int
	writeEvery         int // route_hot: ops per epoch; client 0 starts an epoch with a write
	writeArcs          int
	knnK               int
	refreshArcs        int
	refreshQueries     int // oracle-checked routes after each refresh cycle
	warmups            int // untimed ops per client before the window
	refreshWarmups     int
	setupReps          int // set-ups per run; setup_s is their median
	setupRepsMax       int // cheap set-ups repeat up to this often
	probeScale         int // divides micro-probe iteration counts
}

var fullSizes = sizes{
	roadN: 2048, gridRows: 24, gridCols: 24,
	universe: 64, hotPairs: 1024, cacheCap: 256, writeEvery: 100, writeArcs: 8,
	knnK: 32, refreshArcs: 64, refreshQueries: 3,
	warmups: 10, refreshWarmups: 1, setupReps: 3, setupRepsMax: 9, probeScale: 1,
}

var tinySizes = sizes{
	roadN: 192, gridRows: 6, gridCols: 6,
	universe: 4, hotPairs: 16, cacheCap: 16, writeEvery: 5, writeArcs: 2,
	knnK: 4, refreshArcs: 4, refreshQueries: 1,
	warmups: 1, refreshWarmups: 1, setupReps: 1, setupRepsMax: 1, probeScale: 100,
}

// queryOpts is the production stack: index when built, Fed-AMPS, TM-tree,
// batched Fed-SAC.
var queryOpts = fedroad.QueryOptions{BatchedMPC: true}

// world is one workload's federation plus the benchmark's shadow of it.
type world struct {
	g       *fedroad.Graph
	w0      fedroad.Weights
	fed     *fedroad.Federation
	shadow  *shadow
	wire    bool
	certDir string
}

// newWorld builds a 3-silo protocol-mode federation over the wire mesh
// (MeshTCP + mTLS on loopback) or the in-process transport. indexed adds the
// skeleton and the first customization.
func newWorld(g *fedroad.Graph, w0 fedroad.Weights, wire, indexed bool, tr *tracer) (w *world, err error) {
	w = &world{g: g, w0: w0, wire: wire}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	sw := fedroad.SimulateCongestion(w0, silos, fedroad.Moderate, worldSeed)
	w.shadow = newShadow(g, sw)
	cfg := fedroad.Config{
		Mode:          fedroad.ModeProtocol,
		Seed:          worldSeed,
		RoundTimeout:  roundTimeout,
		TransportWrap: tr.wrap(),
	}
	if wire {
		if w.certDir, err = os.MkdirTemp("", "fedroad-bench-certs"); err != nil {
			return w, err
		}
		if err = fedroad.GenerateTestCerts(w.certDir, silos); err != nil {
			return w, err
		}
		cfg.MeshTCP = true
		cfg.MeshTLS = fedroad.TestCertConfig(w.certDir, 0)
	}
	if w.fed, err = fedroad.New(g, w0, sw, cfg); err != nil {
		return w, err
	}
	if indexed {
		if err = w.fed.BuildSkeleton(); err != nil {
			return w, err
		}
		if err = w.fed.CustomizeIndex(); err != nil {
			return w, err
		}
	}
	return w, nil
}

func (w *world) close() {
	if w.fed != nil {
		w.fed.Close()
	}
	if w.certDir != "" {
		os.RemoveAll(w.certDir)
	}
}

// transport names the world's transport for the envelope.
func (w *world) transport() string {
	if w.wire {
		return "mesh-tcp+mtls(loopback)"
	}
	return "mem"
}

// shadow is the benchmark's own plaintext copy of every silo's weights and of
// their sum at every traffic version, against which answers are checked.
type shadow struct {
	mu    sync.Mutex
	g     *fedroad.Graph
	silo  []fedroad.Weights
	joint map[uint64]fedroad.Weights // traffic version -> summed weights
	ver   uint64
}

func newShadow(g *fedroad.Graph, sw []fedroad.Weights) *shadow {
	s := &shadow{g: g, joint: map[uint64]fedroad.Weights{}}
	cur := make(fedroad.Weights, g.NumArcs())
	for _, ws := range sw {
		c := append(fedroad.Weights(nil), ws...)
		s.silo = append(s.silo, c)
		for a, v := range c {
			cur[a] += v
		}
	}
	s.joint[0] = cur
	return s
}

// apply records the batch as traffic version ver.
func (s *shadow) apply(ver uint64, ups []fedroad.TrafficUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := append(fedroad.Weights(nil), s.joint[s.ver]...)
	for _, u := range ups {
		next[u.Arc] += u.TravelMs - s.silo[u.Silo][u.Arc]
		s.silo[u.Silo][u.Arc] = u.TravelMs
	}
	s.joint[ver] = next
	s.ver = ver
}

func (s *shadow) at(ver uint64) fedroad.Weights {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joint[ver]
}

// perturb changes one summed weight at every recorded version without telling
// the federation: the oracle self-test uses it to prove a wrong answer counts.
func (s *shadow) perturb(a fedroad.Arc, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ws := range s.joint {
		ws[a] += delta
	}
}

// answer is what a query returned, reduced to what the oracle needs (the
// paths themselves would sit in the benchmark's heap until the window closes
// and be counted in peak_rss_mb), and checked against the shadow at the
// version the answer echoed.
type answer struct {
	knn      bool
	src, dst fedroad.Vertex
	ver      uint64
	legs     []leg // one for a route; k for kNN, nearest first
}

// leg is one returned route: where it ends, what it costs, and whether it was
// found and is a path starting at the source.
type leg struct {
	target fedroad.Vertex
	cost   int64
	ok     bool
}

func legOf(src fedroad.Vertex, r fedroad.Route) leg {
	if !r.Found || len(r.Path) == 0 || r.Path[0] != src {
		return leg{}
	}
	return leg{target: r.Path[len(r.Path)-1], cost: fedroad.JointCost(r), ok: true}
}

func routeAnswer(src, dst fedroad.Vertex, ver uint64, r fedroad.Route) answer {
	return answer{src: src, dst: dst, ver: ver, legs: []leg{legOf(src, r)}}
}

// check reports why the answer is wrong, or "".
func (s *shadow) check(a answer) string {
	w := s.at(a.ver)
	if w == nil {
		return fmt.Sprintf("echoed traffic version %d was never applied", a.ver)
	}
	if !a.knn {
		l := a.legs[0]
		want, _ := graph.DijkstraTo(s.g, w, a.src, a.dst)
		switch {
		case !l.ok:
			if want != graph.InfCost {
				return fmt.Sprintf("route %d->%d not found or not from the source, oracle cost %d", a.src, a.dst, want)
			}
		case l.target != a.dst:
			return fmt.Sprintf("route %d->%d ends at %d", a.src, a.dst, l.target)
		case l.cost != want:
			return fmt.Sprintf("route %d->%d costs %d, oracle %d", a.src, a.dst, l.cost, want)
		}
		return ""
	}
	// kNN: each entry's cost is its target's true distance (membership), and
	// the i-th cost is the i-th smallest distance (order).
	tree := graph.Dijkstra(s.g, w, a.src)
	want := smallest(tree.Dist, len(a.legs))
	seen := map[fedroad.Vertex]bool{}
	for i, l := range a.legs {
		switch {
		case !l.ok:
			return fmt.Sprintf("knn from %d entry %d is not a path from the source", a.src, i)
		case seen[l.target]:
			return fmt.Sprintf("knn from %d lists %d twice", a.src, l.target)
		case l.cost != tree.Dist[l.target] || l.cost != want[i]:
			return fmt.Sprintf("knn from %d entry %d (vertex %d) costs %d, true %d, %d-th smallest %d",
				a.src, i, l.target, l.cost, tree.Dist[l.target], i, want[i])
		}
		seen[l.target] = true
	}
	return ""
}

// smallest returns the k smallest values of dist in ascending order.
func smallest(dist []int64, k int) []int64 {
	out := make([]int64, 0, k+1)
	for _, d := range dist {
		i := len(out)
		for i > 0 && out[i-1] > d {
			i--
		}
		if i >= k {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = d
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// odUniverse draws n distinct-endpoint OD pairs, fixed by worldSeed and salt.
func odUniverse(g *fedroad.Graph, n int, salt int64) [][2]fedroad.Vertex {
	rng := rand.New(rand.NewSource(worldSeed*1000 + salt))
	out := make([][2]fedroad.Vertex, n)
	for i := range out {
		s := fedroad.Vertex(rng.Intn(g.NumVertices()))
		t := s
		for t == s {
			t = fedroad.Vertex(rng.Intn(g.NumVertices()))
		}
		out[i] = [2]fedroad.Vertex{s, t}
	}
	return out
}

// trafficBatch draws n updates: a random silo reports 1x-3x the free-flow
// time on a random arc.
func trafficBatch(rng *rand.Rand, w0 fedroad.Weights, n int) []fedroad.TrafficUpdate {
	ups := make([]fedroad.TrafficUpdate, n)
	for i := range ups {
		a := rng.Intn(len(w0))
		ups[i] = fedroad.TrafficUpdate{
			Silo:     rng.Intn(silos),
			Arc:      fedroad.Arc(a),
			TravelMs: w0[a] + rng.Int63n(2*w0[a]+1),
		}
	}
	return ups
}
