// Package fed models the traffic data federation of the paper's §II-A: P
// autonomous silos share one road-network topology and the public static
// weight set W0, while each silo privately holds its own traffic observation
// (a weight set). The only cross-silo operation is Fed-SAC — the secure
// sum-and-compare operator — carried by the mpc package.
//
// Throughout the federated algorithms, a secret joint cost is represented as
// a partial-cost vector: element p is silo p's private partial cost, and the
// joint cost is (conceptually) the mean. Because all comparisons are scale
// invariant, the implementation compares sums instead of means (Eq. 2).
package fed

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// Partial is a per-silo partial cost vector of length P. In a real
// deployment, entry p exists only at silo p; the simulation keeps the vector
// in one process but routes every cross-silo comparison through the MPC
// engine.
type Partial = []int64

// Silo is one data owner: it holds the shared topology by reference and a
// private weight set. The weight set is unexported; algorithm code accesses
// it through methods to keep the privacy boundary visible in the code.
type Silo struct {
	id int
	w  graph.Weights
}

// ID returns the silo's index in the federation.
func (s *Silo) ID() int { return s.id }

// Weight returns the silo's private weight of arc a. Conceptually this runs
// at the silo; results must only leave the silo through Fed-SAC.
func (s *Silo) Weight(a graph.Arc) int64 { return s.w[a] }

// SetWeight updates the silo's private weight of arc a, reflecting a
// real-time traffic change. The federation must afterwards run the federated
// index update (ch.Index.Update) so pre-computed structures stay consistent.
func (s *Silo) SetWeight(a graph.Arc, w int64) {
	if w <= 0 || w >= graph.MaxWeight {
		panic(fmt.Sprintf("fed: silo %d: invalid weight %d for arc %d", s.id, w, a))
	}
	s.w[a] = w
}

// Weights exposes the silo's full private weight set for silo-local
// computation (e.g. Fed-AMPS local searches). Callers must not mix weight
// sets across silos outside the MPC engine.
func (s *Silo) Weights() graph.Weights { return s.w }

// Federation binds the shared topology, the public static weights, the P
// silos and the MPC engine executing Fed-SAC.
//
// A Federation is not safe for unsynchronized concurrent use (its MPC engine
// is single-goroutine and silo weights are mutable); Fork produces views that
// share all federation data but own an independent engine, so queries on
// different forks run concurrently. Coordinating queries against weight
// mutation is the caller's responsibility (the fedroad package does this
// with a reader/writer lock).
type Federation struct {
	g     *graph.Graph
	w0    graph.Weights
	silos []*Silo
	eng   *mpc.Engine
	root  *Federation // nil when this federation is itself the root
}

// New assembles a federation. siloWeights[p] is silo p's private weight set;
// every set must cover all arcs with positive weights.
func New(g *graph.Graph, w0 graph.Weights, siloWeights []graph.Weights, params mpc.Params) (*Federation, error) {
	if len(siloWeights) < 2 {
		return nil, fmt.Errorf("fed: need at least 2 silos, got %d", len(siloWeights))
	}
	if err := graph.ValidateWeights(g, w0); err != nil {
		return nil, fmt.Errorf("fed: static weights: %w", err)
	}
	for p, w := range siloWeights {
		if err := graph.ValidateWeights(g, w); err != nil {
			return nil, fmt.Errorf("fed: silo %d weights: %w", p, err)
		}
	}
	params.Parties = len(siloWeights)
	eng, err := mpc.NewEngine(params)
	if err != nil {
		return nil, err
	}
	f := &Federation{g: g, w0: w0, eng: eng}
	for p, w := range siloWeights {
		f.silos = append(f.silos, &Silo{id: p, w: w})
	}
	return f, nil
}

// Graph returns the shared road-network topology.
func (f *Federation) Graph() *graph.Graph { return f.g }

// StaticWeights returns the public static weight set W0 (free-flow travel
// times), shared by all silos.
func (f *Federation) StaticWeights() graph.Weights { return f.w0 }

// P returns the number of silos.
func (f *Federation) P() int { return len(f.silos) }

// Silo returns silo p.
func (f *Federation) Silo(p int) *Silo { return f.silos[p] }

// Engine exposes the MPC engine (for cost accounting).
func (f *Federation) Engine() *mpc.Engine { return f.eng }

// Root returns the federation this one was (transitively) forked from, or
// the federation itself if it is the root. Forks of one root share all
// federation data — pre-computed structures built against any member of the
// family are valid for every other member.
func (f *Federation) Root() *Federation {
	if f.root != nil {
		return f.root
	}
	return f
}

// Fork returns a federation view backed by the same topology, public
// weights and silos, with an independent MPC engine forked from this
// federation's engine. Queries on distinct forks run concurrently; each
// individual fork remains single-goroutine.
func (f *Federation) Fork() *Federation {
	return &Federation{g: f.g, w0: f.w0, silos: f.silos, eng: f.eng.Fork(), root: f.Root()}
}

// ArcPartial returns the partial-cost vector of a single arc: entry p is
// silo p's private weight of the arc.
func (f *Federation) ArcPartial(a graph.Arc) Partial {
	v := make(Partial, len(f.silos))
	for p, s := range f.silos {
		v[p] = s.w[a]
	}
	return v
}

// SnapshotWeights deep-copies every silo's private weight set. Callers that
// compute off-lock against a consistent view of the federation (landmark
// precomputation, index construction) snapshot under their read lock and
// work on the copy.
func (f *Federation) SnapshotWeights() []graph.Weights {
	sets := make([]graph.Weights, len(f.silos))
	for p, s := range f.silos {
		sets[p] = append(graph.Weights(nil), s.w...)
	}
	return sets
}

// JointWeights materializes the WJRN weight set (scaled by P). This is an
// evaluation-only helper: in a real deployment no party may compute it. The
// test suite uses it as ground truth.
func (f *Federation) JointWeights() graph.Weights {
	sets := make([]graph.Weights, len(f.silos))
	for p, s := range f.silos {
		sets[p] = s.w
	}
	return graph.JointWeights(sets)
}

// AddPartial adds b into dst element-wise.
func AddPartial(dst, b Partial) {
	for i := range dst {
		dst[i] += b[i]
	}
}

// SumPartial returns a+b as a fresh vector.
func SumPartial(a, b Partial) Partial {
	out := make(Partial, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// ClonePartial copies a partial vector.
func ClonePartial(a Partial) Partial {
	out := make(Partial, len(a))
	copy(out, a)
	return out
}

// ZeroPartial returns a zero vector of length P.
func (f *Federation) ZeroPartial() Partial { return make(Partial, len(f.silos)) }

// SAC is the Fed-SAC operator bound to a federation, with sticky error
// handling: search loops call Less freely and check Err once at the end.
// Every Less call is one secure comparison.
type SAC struct {
	eng *mpc.Engine
	err error
}

// NewSAC creates a Fed-SAC handle on the federation's MPC engine.
func (f *Federation) NewSAC() *SAC { return &SAC{eng: f.eng} }

// Less reports whether the joint cost of a is strictly smaller than the
// joint cost of b, via one secure comparison. After an engine error it
// returns false; check Err.
func (s *SAC) Less(a, b Partial) bool {
	if s.err != nil {
		return false
	}
	r, err := s.eng.CompareSums(a, b)
	if err != nil {
		s.err = err
		return false
	}
	return r
}

// LessBatch runs len(pairs) independent secure comparisons in one batched
// protocol instance (one set of communication rounds for the whole batch).
// result[i] reports whether the joint cost of pairs[i][0] is strictly
// smaller than the joint cost of pairs[i][1].
func (s *SAC) LessBatch(pairs [][2]Partial) []bool {
	diffs := make([][]int64, len(pairs))
	for i, pr := range pairs {
		d := make([]int64, len(pr[0]))
		for p := range d {
			d[p] = pr[0][p] - pr[1][p]
		}
		diffs[i] = d
	}
	return s.LessDiffs(diffs)
}

// LessDiffs is LessBatch for callers that hold per-silo weight columns rather
// than Partials: diffs[i][p] is silo p's partial of comparison i's left side
// minus its right side, and result[i] reports whether the joint difference is
// negative. The engine does not retain diffs, so the caller may reuse it.
func (s *SAC) LessDiffs(diffs [][]int64) []bool {
	if s.err != nil || len(diffs) == 0 {
		return make([]bool, len(diffs))
	}
	res, err := s.eng.CompareBatch(diffs)
	if err != nil {
		s.err = err
		return make([]bool, len(diffs))
	}
	return res
}

// Err returns the first engine error encountered, if any.
func (s *SAC) Err() error { return s.err }

// Stats returns the engine's accumulated comparison statistics.
func (s *SAC) Stats() mpc.Stats { return s.eng.Stats() }
