// Package traffic generates the federation's traffic observations: the
// paper's congestion model (§VIII-A) for per-silo weight sets, and a taxi
// trajectory simulator reproducing the data-volume experiment of Fig. 1.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/graph"
)

// Level is a congestion level: a fraction Beta of road segments is congested,
// and each congested segment's weight is increased by a factor (1+θ) with
// θ ~ U(0, ThetaMax), sampled independently per silo (the silos observe the
// same congestion with independent noise).
type Level struct {
	Name     string
	Beta     float64
	ThetaMax float64
}

// The paper's four congestion levels.
var (
	Free     = Level{Name: "Free", Beta: 0, ThetaMax: 0}
	Slight   = Level{Name: "Slight", Beta: 0.10, ThetaMax: 0.30}
	Moderate = Level{Name: "Moderate", Beta: 0.20, ThetaMax: 0.50}
	Heavy    = Level{Name: "Heavy", Beta: 0.50, ThetaMax: 1.00}
)

// Levels lists the paper's congestion levels in increasing severity.
func Levels() []Level { return []Level{Free, Slight, Moderate, Heavy} }

// ParseLevel resolves a congestion level by name, ignoring case: free,
// slight, moderate or heavy.
func ParseLevel(name string) (Level, error) {
	for _, l := range Levels() {
		if strings.EqualFold(l.Name, name) {
			return l, nil
		}
	}
	return Level{}, fmt.Errorf("unknown congestion level %q (want free, slight, moderate or heavy)", name)
}

// SiloWeights generates P private weight sets from the static weights w0
// under the given congestion level, following §VIII-A: one shared congested
// subset E_c (|E_c| = Beta·|E|), then P×|E_c| independent θ samples.
//
// Determinism contract (v2): the output is a pure function of
// (w0, p, lvl, seed). The congested subset is drawn by selection sampling
// (Knuth's Algorithm S) in O(1) extra memory — a USA-scale rng.Perm here
// cost ~450 MB of transient garbage — which changed the seed→subset
// mapping relative to v1; committed baselines were regenerated.
func SiloWeights(w0 graph.Weights, p int, lvl Level, seed uint64) []graph.Weights {
	rng := rand.New(rand.NewPCG(seed, seed^0x7ed558ccdf1eb5a1))
	m := len(w0)
	congested := make([]bool, m)
	numC := int(math.Round(lvl.Beta * float64(m)))
	// Selection sampling: arc a is congested with probability
	// need/(m-a), which yields exactly numC arcs, uniformly.
	need := numC
	for a := 0; a < m && need > 0; a++ {
		if int(rng.Int64N(int64(m-a))) < need {
			congested[a] = true
			need--
		}
	}
	sets := make([]graph.Weights, p)
	for s := range sets {
		w := make(graph.Weights, m)
		copy(w, w0)
		for a := 0; a < m; a++ {
			if congested[a] {
				theta := rng.Float64() * lvl.ThetaMax
				w[a] = int64(math.Round(float64(w0[a]) * (1 + theta)))
			}
		}
		sets[s] = w
	}
	return sets
}

// GroundTruth generates the "true" congested weight set used by the
// trajectory simulator: the same congestion process with a single sample.
func GroundTruth(w0 graph.Weights, lvl Level, seed uint64) graph.Weights {
	return SiloWeights(w0, 1, lvl, seed)[0]
}

// Observations holds simulated vehicle trajectories over a road network:
// every trajectory is a driven route whose traversal yields one noisy travel
// time observation per traversed arc. A platform holding a subset of
// trajectories estimates edge weights from its observations — the fewer
// trajectories, the noisier the picture (the mechanism behind Fig. 1).
type Observations struct {
	g        *graph.Graph
	w0       graph.Weights
	trajArcs [][]graph.Arc
	trajObs  [][]int64
}

// Simulate drives numTraj vehicles between random endpoints. Each driver
// routes on an individually perturbed view of the true weights (real drivers
// differ in preference and knowledge, so trajectories spread over many roads
// instead of piling onto one optimal corridor); each arc traversal then
// observes the true travel time perturbed by multiplicative noise
// U(1−noise, 1+noise). Deterministic in seed.
func Simulate(g *graph.Graph, wTrue, w0 graph.Weights, numTraj int, noise float64, seed uint64) *Observations {
	rng := rand.New(rand.NewPCG(seed, seed^0x94d049bb133111eb))
	o := &Observations{g: g, w0: w0}
	n := g.NumVertices()
	perceived := make(graph.Weights, len(wTrue))
	for t := 0; t < numTraj; t++ {
		s := graph.Vertex(rng.IntN(n))
		d := graph.Vertex(rng.IntN(n))
		if s == d {
			d = graph.Vertex((int(d) + 1 + rng.IntN(n-1)) % n)
		}
		const routeSpread = 0.5 // driver heterogeneity
		for a := range perceived {
			f := 1 + (rng.Float64()*2-1)*routeSpread
			perceived[a] = int64(float64(wTrue[a]) * f)
			if perceived[a] < 1 {
				perceived[a] = 1
			}
		}
		_, path := graph.DijkstraTo(g, perceived, s, d)
		if len(path) < 2 {
			continue
		}
		var arcs []graph.Arc
		var obs []int64
		for i := 0; i+1 < len(path); i++ {
			a := g.FindArc(path[i], path[i+1])
			factor := 1 + (rng.Float64()*2-1)*noise
			v := int64(math.Round(float64(wTrue[a]) * factor))
			if v < 1 {
				v = 1
			}
			arcs = append(arcs, a)
			obs = append(obs, v)
		}
		o.trajArcs = append(o.trajArcs, arcs)
		o.trajObs = append(o.trajObs, obs)
	}
	return o
}

// NumTrajectories reports how many trajectories were recorded.
func (o *Observations) NumTrajectories() int { return len(o.trajArcs) }

// Estimate builds a platform's weight set from the given trajectory indices:
// the mean observation per arc, falling back to the free-flow weight w0 for
// unobserved arcs (a platform has no better prior for roads it never drove).
func (o *Observations) Estimate(trajIdx []int) graph.Weights {
	m := o.g.NumArcs()
	sum := make([]int64, m)
	cnt := make([]int64, m)
	for _, t := range trajIdx {
		for i, a := range o.trajArcs[t] {
			sum[a] += o.trajObs[t][i]
			cnt[a]++
		}
	}
	w := make(graph.Weights, m)
	for a := 0; a < m; a++ {
		if cnt[a] > 0 {
			w[a] = (sum[a] + cnt[a]/2) / cnt[a]
			if w[a] < 1 {
				w[a] = 1
			}
		} else {
			w[a] = o.w0[a]
		}
	}
	return w
}

// Fraction returns the first fraction·N trajectory indices, modelling a
// platform that holds that share of the full trajectory pool.
func (o *Observations) Fraction(fraction float64) []int {
	n := int(math.Round(fraction * float64(len(o.trajArcs))))
	if n > len(o.trajArcs) {
		n = len(o.trajArcs)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Split partitions all trajectories into p disjoint shares (round-robin),
// modelling p platforms that each observed a different slice of the traffic.
func (o *Observations) Split(p int) [][]int {
	shares := make([][]int, p)
	for t := range o.trajArcs {
		shares[t%p] = append(shares[t%p], t)
	}
	return shares
}
