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

// Weights exposes the silo's full private weight set for silo-local
// computation (e.g. Fed-AMPS local searches). Callers must not mix weight
// sets across silos outside the MPC engine, and must not write it.
func (s *Silo) Weights() graph.Weights { return s.w }

// Federation binds the shared topology, the public static weights, the P
// silos and the MPC engine executing Fed-SAC.
//
// A Federation is not safe for unsynchronized concurrent use (its MPC engine
// is single-goroutine); Fork produces views that share all federation data but
// own an independent engine, so queries on different forks run concurrently.
// Nothing writes a weight set after New or WithWeights has taken it: a traffic
// change is a WithWeights view over fresh weight sets, and a long-lived fork
// answers at a view it loaded through At (the fedroad package publishes one
// view per traffic version).
type Federation struct {
	g     *graph.Graph
	w0    graph.Weights
	silos []*Silo
	eng   *mpc.Engine
	// wrap, when set, wraps the decision function of every Fed-SAC handle
	// this view and its forks create (see WithDecide).
	wrap func(Decide) Decide
}

// New assembles a federation. sets[p] is silo p's private weight set;
// every set must cover all arcs with positive weights. The federation keeps
// the sets: nothing may write them afterwards.
func New(g *graph.Graph, w0 graph.Weights, sets []graph.Weights, params mpc.Params) (*Federation, error) {
	if len(sets) < 2 {
		return nil, fmt.Errorf("fed: need at least 2 silos, got %d", len(sets))
	}
	if err := graph.ValidateWeights(g, w0); err != nil {
		return nil, fmt.Errorf("fed: static weights: %w", err)
	}
	for p, w := range sets {
		if err := graph.ValidateWeights(g, w); err != nil {
			return nil, fmt.Errorf("fed: silo %d weights: %w", p, err)
		}
	}
	params.Parties = len(sets)
	eng, err := mpc.NewEngine(params)
	if err != nil {
		return nil, err
	}
	f := &Federation{g: g, w0: w0, eng: eng}
	for p, w := range sets {
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

// SameWeights reports whether f and o read the same silo weight sets: forks
// and views of one federation, or of one WithWeights view. Pre-computed
// structures built against one of them are valid for the other.
func (f *Federation) SameWeights(o *Federation) bool { return &f.silos[0] == &o.silos[0] }

// Fork returns a federation view backed by the same topology, public
// weights and silos, with an independent MPC engine forked from this
// federation's engine. Queries on distinct forks run concurrently; each
// individual fork remains single-goroutine.
func (f *Federation) Fork() *Federation {
	return &Federation{g: f.g, w0: f.w0, silos: f.silos, eng: f.eng.Fork(), wrap: f.wrap}
}

// WithWeights returns a view of f over new silo weight sets — the next
// version of a federation whose traffic moved. It shares f's topology, engine
// and decision wrapper, so its forks continue f's fork sequence. The caller
// hands the sets over, unvalidated: nothing may write them afterwards, and a
// set it did not change may be f's own.
func (f *Federation) WithWeights(sets []graph.Weights) *Federation {
	v := *f
	v.silos = make([]*Silo, len(sets))
	for p, w := range sets {
		v.silos[p] = &Silo{id: p, w: w}
	}
	return &v
}

// At returns a view that compares on f's engine over the silo weights of w,
// another view of the same federation: a long-lived fork answers each query
// at the version it loaded.
func (f *Federation) At(w *Federation) *Federation {
	v := *f
	v.silos = w.silos
	return &v
}

// Decide is Fed-SAC's decision function over one protocol instance:
// result[i] reports whether Σ_p diffs[i][p] < 0. The engine's CompareBatch is
// the production one.
type Decide func(diffs [][]int64) ([]bool, error)

// WithDecide returns a view of f that shares its topology, silos and engine,
// and whose Fed-SAC handles — NewSAC on the view and on every Fork of
// it — decide through wrap(engine's CompareBatch). It is the one seam at which
// everything the silos learn passes, the opened bits and the width of every
// instance, whichever package compares (core, ch, lb). The simulator tests set
// it to record a real run and replay it on garbage weights, and the
// cross-process harness (internal/soak) to run each party's side of every
// instance over the wire; the fedroad facade never sets it.
func (f *Federation) WithDecide(wrap func(Decide) Decide) *Federation {
	v := *f
	v.wrap = wrap
	return &v
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
// handling: search loops compare freely and check Err once at the end. Every
// call is one protocol instance; a lone comparison is a batch of one.
type SAC struct {
	decide Decide
	err    error
}

// NewSAC creates a Fed-SAC handle on the federation's MPC engine, through the
// view's WithDecide wrapper if it has one.
func (f *Federation) NewSAC() *SAC {
	decide := Decide(f.eng.CompareBatch)
	if f.wrap != nil {
		decide = f.wrap(decide)
	}
	return &SAC{decide: decide}
}

// LessBatch runs len(pairs) independent secure comparisons in one batched
// protocol instance (one set of communication rounds for the whole batch).
// result[i] reports whether the joint cost of pairs[i][0] is strictly
// smaller than the joint cost of pairs[i][1]. After an engine error every
// bit is false; check Err.
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
	res, err := s.decide(diffs)
	if err != nil {
		s.err = err
		return make([]bool, len(diffs))
	}
	return res
}

// Err returns the first engine error encountered, if any.
func (s *SAC) Err() error { return s.err }
