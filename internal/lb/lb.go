// Package lb implements the federated lower-bound estimators of §V, used as
// A* potentials by the federated SPSP search:
//
//   - Fed-ALT: landmark bounds with the tightest landmark selected by |L|−1
//     secure comparisons per estimation (accurate, communication-heavy).
//   - Fed-ALT-Max: the landmark is selected in plain text on the public
//     static weights W0, then only that landmark's private partial bound is
//     used — zero secure comparisons per estimation, slightly looser.
//   - Fed-AMPS: the mean of the per-silo *local* shortest-path costs, a
//     provably admissible joint lower bound (Eq. 3) obtained with pure local
//     computation (one lazily grown Dijkstra per silo per direction).
//
// A plain static-weight ALT baseline is included for the accuracy ablation
// (Fig. 11). Production routes use Fed-AMPS, which needs no pre-processing;
// the landmark matrices serve the evaluation harness, and Precompute builds
// them with one goroutine per landmark.
package lb

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fed"
	"repro/internal/graph"
)

// Kind names a lower-bound estimation method.
type Kind string

const (
	None      Kind = "none"
	FedALT    Kind = "fed-alt"
	FedALTMax Kind = "fed-alt-max"
	FedAMPS   Kind = "fed-amps"
)

// Estimator produces, for each explored vertex, a per-silo partial vector
// whose joint value lower-bounds the remaining joint distance of the search
// direction it was built for.
type Estimator interface {
	Potential(v graph.Vertex) fed.Partial
}

// Landmarks carries the pre-computed landmark distance matrices: the public
// static matrix Φ0 and the per-silo partial matrices Φ_p of the *joint*
// vertex→landmark distances (paper §V). All matrices store distances from
// every vertex TO each landmark, matching the paper's bound
// max_l { φ̄(v_s,l) − φ̄(v_t,l) }.
//
// The bounds hold only for the weight sets passed to Precompute: recompute
// after any weight change. Φ_p of a landmark is a distance under the OLD joint
// weights, so once a travel time drops the difference can exceed the true
// remaining distance and an A* search pruned by it returns a route that is
// not the shortest (EXPERIMENTS.md, "Stale landmarks"). Nothing refreshes a
// Landmarks value in place, which is why only the evaluation harness
// (internal/expr, cmd/fedbench) builds one — for weights it then leaves
// alone.
type Landmarks struct {
	L    []graph.Vertex
	Phi0 [][]int64   // [l][v] static dist(v → L[l]) under W0
	Phi  [][][]int64 // [p][l][v] silo p's partial cost of the joint shortest path v → L[l]
}

// SelectLandmarks picks k landmarks with the farthest-point heuristic on the
// public static weights (deterministic, so every silo selects the same set,
// as the paper requires).
func SelectLandmarks(g *graph.Graph, w0 graph.Weights, k int, seed uint64) []graph.Vertex {
	if k < 1 || k > g.NumVertices() {
		panic(fmt.Sprintf("lb: landmark count %d out of range", k))
	}
	n := g.NumVertices()
	minDist := make([]int64, n)
	for i := range minDist {
		minDist[i] = graph.InfCost
	}
	first := graph.Vertex(seed % uint64(n))
	landmarks := []graph.Vertex{first}
	update := func(l graph.Vertex) {
		res := graph.Dijkstra(g, w0, l)
		for v := 0; v < n; v++ {
			if res.Dist[v] < minDist[v] {
				minDist[v] = res.Dist[v]
			}
		}
	}
	update(first)
	for len(landmarks) < k {
		var far graph.Vertex
		best := int64(-1)
		for v := 0; v < n; v++ {
			if minDist[v] > best && minDist[v] < graph.InfCost {
				best = minDist[v]
				far = graph.Vertex(v)
			}
		}
		landmarks = append(landmarks, far)
		update(far)
	}
	sort.Slice(landmarks, func(i, j int) bool { return landmarks[i] < landmarks[j] })
	return landmarks
}

// PrecomputeLandmarks builds the landmark matrices for a federation. The
// joint vertex→landmark shortest paths are computed collaboratively — this
// implementation evaluates the ideal functionality of the federated SSSP
// (identical outputs; the equivalence is asserted by the core package's
// tests) and derives each silo's partial cost along the joint tree, exactly
// as the paper's pre-processing records φ_p(ρ*).
//
// It reads the weight sets f's silos hold. A published version's weights
// never change, so no lock guards them; Precompute takes weight sets
// directly.
func PrecomputeLandmarks(f *fed.Federation, landmarks []graph.Vertex) *Landmarks {
	sets := make([]graph.Weights, f.P())
	for p := range sets {
		sets[p] = f.Silo(p).Weights()
	}
	return Precompute(f.Graph(), f.StaticWeights(), sets, landmarks, 0)
}

// Precompute builds the landmark matrices from an explicit weight snapshot
// (sets[p] is silo p's weight set), independent of any live federation
// state. Landmarks are independent of each other — per-silo local Dijkstras
// plus a tree walk — so each is computed on its own goroutine.
//
// The last parameter is ignored; it stays only so that callers passing a
// worker count still compile.
func Precompute(g *graph.Graph, w0 graph.Weights, sets []graph.Weights, landmarks []graph.Vertex, _ int) *Landmarks {
	n := g.NumVertices()
	p := len(sets)
	lm := &Landmarks{L: landmarks}
	joint := graph.JointWeights(sets) // ideal functionality of the collaborative SSSP
	lm.Phi0 = make([][]int64, len(landmarks))
	lm.Phi = make([][][]int64, p)
	for s := 0; s < p; s++ {
		lm.Phi[s] = make([][]int64, len(landmarks))
	}
	// Each landmark writes only its own Phi0[li] / Phi[s][li] rows, so the
	// fan-out is race-free by construction.
	var wg sync.WaitGroup
	for li, l := range landmarks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			static := graph.NewSearch(g, w0, l, true)
			for _, ok := static.Next(); ok; _, ok = static.Next() {
			}
			lm.Phi0[li] = static.Dist
			parts := make([][]int64, p)
			for s := 0; s < p; s++ {
				parts[s] = make([]int64, n)
				for v := range parts[s] {
					parts[s][v] = graph.InfCost
				}
				parts[s][l] = 0
				lm.Phi[s][li] = parts[s]
			}
			// Partial costs along the joint tree, in settle order: a vertex's
			// successor toward l is settled, and so resolved, before it.
			res := graph.NewSearch(g, joint, l, true)
			res.Next() // l itself
			for v, ok := res.Next(); ok; v, ok = res.Next() {
				succ, arc := res.Parent(v), res.PArc[v]
				for s := 0; s < p; s++ {
					parts[s][v] = parts[s][succ] + sets[s][arc]
				}
			}
		}()
	}
	wg.Wait()
	return lm
}

// staticBound returns the best static landmark index for the pair (from, to)
// and its Φ0 bound value.
func (lm *Landmarks) staticBound(from, to graph.Vertex) (best int, bound int64) {
	bound = -graph.InfCost
	for li := range lm.L {
		dF, dT := lm.Phi0[li][from], lm.Phi0[li][to]
		if dF >= graph.InfCost || dT >= graph.InfCost {
			continue
		}
		if b := dF - dT; b > bound {
			bound, best = b, li
		}
	}
	return best, bound
}

// partialBound fills out with the per-silo partial bound of landmark li for
// the ordered pair (from, to): Φ_p[li][from] − Φ_p[li][to].
func (lm *Landmarks) partialBound(li int, from, to graph.Vertex, out fed.Partial) bool {
	for p := range out {
		dF, dT := lm.Phi[p][li][from], lm.Phi[p][li][to]
		if dF >= graph.InfCost || dT >= graph.InfCost {
			return false
		}
		out[p] = dF - dT
	}
	return true
}

// StaticALTBound estimates the joint distance s→t from the static matrix
// alone, scaled into joint-sum space (×P). It is the Fig. 11 "ALT" baseline:
// under congestion the true joint distances grow while this estimate stays
// static, so its relative error grows.
func (lm *Landmarks) StaticALTBound(s, t graph.Vertex, p int) int64 {
	_, b := lm.staticBound(s, t)
	if b < 0 {
		b = 0
	}
	return b * int64(p)
}

// zeroEstimator returns an all-zero potential (plain Dijkstra ordering).
type zeroEstimator struct{ p int }

func (z zeroEstimator) Potential(graph.Vertex) fed.Partial { return make(fed.Partial, z.p) }

// altMaxEstimator is Fed-ALT-Max: per estimation, the landmark maximizing
// the public static bound is chosen in plain text; only that landmark's
// private partial bound is returned. Zero Fed-SAC calls.
type altMaxEstimator struct {
	lm       *Landmarks
	p        int
	fixed    graph.Vertex // target (forward search) or source (backward)
	backward bool
}

func (e *altMaxEstimator) Potential(v graph.Vertex) fed.Partial {
	out := make(fed.Partial, e.p)
	from, to := v, e.fixed
	if e.backward {
		// Bound dist(s, v) ≥ φ(s,l) − φ(v,l).
		from, to = e.fixed, v
	}
	li, b := e.lm.staticBound(from, to)
	if b <= -graph.InfCost {
		return out
	}
	if !e.lm.partialBound(li, from, to, out) {
		for i := range out {
			out[i] = 0
		}
	}
	return out
}

// altEstimator is Fed-ALT: the tightest joint bound is selected with |L|−1
// secure comparisons per estimation (paper Alg. 4, lines 1–5).
type altEstimator struct {
	lm       *Landmarks
	p        int
	fixed    graph.Vertex
	backward bool
	sac      *fed.SAC
}

func (e *altEstimator) Potential(v graph.Vertex) fed.Partial {
	from, to := v, e.fixed
	if e.backward {
		from, to = e.fixed, v
	}
	best := make(fed.Partial, e.p)
	haveBest := e.lm.partialBound(0, from, to, best)
	cand := make(fed.Partial, e.p)
	for li := 1; li < len(e.lm.L); li++ {
		if !e.lm.partialBound(li, from, to, cand) {
			continue
		}
		if !haveBest {
			copy(best, cand)
			haveBest = true
			continue
		}
		// Secure: is the candidate tighter? Each comparison depends on the
		// last one's winner, so each is an instance of one.
		if e.sac.LessBatch([][2]fed.Partial{{best, cand}})[0] {
			copy(best, cand)
		}
	}
	if !haveBest {
		for i := range best {
			best[i] = 0
		}
	}
	return best
}

// ampsEstimator is Fed-AMPS: each silo lazily grows a local Dijkstra toward
// (or from) the query endpoint; the per-silo local shortest-path costs form
// the partial lower-bound vector (Eq. 3). Pure local computation.
type ampsEstimator struct {
	searches []*graph.Search
}

func (e *ampsEstimator) Potential(v graph.Vertex) fed.Partial {
	out := make(fed.Partial, len(e.searches))
	for p, x := range e.searches {
		d := x.DistTo(v)
		if d > graph.MaxPathCost {
			// Unreachable in the shared topology ⇒ unreachable jointly; the
			// clamp keeps MPC magnitudes sound and is irrelevant for
			// admissibility (such vertices are never on an s→t path).
			d = graph.MaxPathCost
		}
		out[p] = d
	}
	return out
}

// NewPair builds the forward estimator (bounding dist(v→t)) and the backward
// estimator (bounding dist(s→v)) for one SPSP query. Fed-ALT needs the sac
// handle; landmark-based kinds need precomputed Landmarks.
func NewPair(kind Kind, f *fed.Federation, lm *Landmarks, sac *fed.SAC, s, t graph.Vertex) (forward, backward Estimator, err error) {
	switch kind {
	case None:
		z := zeroEstimator{p: f.P()}
		return z, z, nil
	case FedALTMax:
		if lm == nil {
			return nil, nil, fmt.Errorf("lb: %s requires precomputed landmarks", kind)
		}
		return &altMaxEstimator{lm: lm, p: f.P(), fixed: t},
			&altMaxEstimator{lm: lm, p: f.P(), fixed: s, backward: true}, nil
	case FedALT:
		if lm == nil {
			return nil, nil, fmt.Errorf("lb: %s requires precomputed landmarks", kind)
		}
		if sac == nil {
			return nil, nil, fmt.Errorf("lb: %s requires a Fed-SAC handle", kind)
		}
		return &altEstimator{lm: lm, p: f.P(), fixed: t, sac: sac},
			&altEstimator{lm: lm, p: f.P(), fixed: s, backward: true, sac: sac}, nil
	case FedAMPS:
		fw := &ampsEstimator{}
		bw := &ampsEstimator{}
		for p := 0; p < f.P(); p++ {
			w := f.Silo(p).Weights()
			fw.searches = append(fw.searches, graph.NewSearch(f.Graph(), w, t, true))
			bw.searches = append(bw.searches, graph.NewSearch(f.Graph(), w, s, false))
		}
		return fw, bw, nil
	default:
		return nil, nil, fmt.Errorf("lb: unknown estimator kind %q", kind)
	}
}
