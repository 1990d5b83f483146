// Package ch implements the federated shortcut index of §IV: a contraction
// hierarchy whose shortcuts are selected collaboratively so that every silo
// holds exactly the same shortcut set, while each silo keeps only its private
// partial shortcut weights (the partial cost of the shared joint witness
// path).
//
// Construction has two phases:
//
//  1. a public ordering phase on the static weights W0 (plain text — W0 is
//     shared, so every silo derives the identical contraction order, the
//     paper's weight-independent "importance" selection);
//  2. a federated contraction phase (Alg. 3): witness searches run as a
//     hop-bounded, lane-synchronous frontier sweep with all cost comparisons
//     through batched Fed-SAC, so the add-or-skip decision for every
//     potential shortcut is made on *joint* weights and is identical at
//     every silo.
//
// The index also supports the dynamic partial update of Table II: after a
// subset of edge weights change, the index for the next traffic version
// recomputes the affected shortcut weights and re-verifies the contraction
// decisions of affected vertices, without a full rebuild.
package ch

import (
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// NoShortcut marks the absence of a via vertex (original arcs).
const NoShortcut = graph.NoVertex

// Index is the federated shortcut index over a federation's road network.
// Overlay arcs 0..numBase-1 mirror the base graph's arcs, and their partials
// are f's silo weights, which the index reads and never copies; higher IDs
// are shortcuts. An index is immutable once derived: Update returns the index
// of the next traffic version.
type Index struct {
	f    *fed.Federation
	rank []int32 // contraction position per vertex (0 = contracted first)

	// Per overlay arc:
	tail, head []graph.Vertex
	via        []graph.Vertex // shortcut's contracted middle vertex, NoShortcut for base arcs

	numBase int

	// Witness-built indexes only: a shortcut's children (the overlay arcs
	// forming its via path), its partials — scW[p][a-numBase] is silo p's
	// partial of shortcut a — and the query-time adjacency: upOut[v] holds
	// out-arcs to higher-ranked heads, downIn[v] in-arcs from higher-ranked
	// tails, each arc in exactly one of the two lists.
	childA, childB []int32
	scW            [][]int64
	upOut, downIn  [][]int32

	hs          *hierarchyState
	witnessCap  int
	witnessHops int
	buildStats  BuildStats

	// Customized indexes only: the immutable topology skeleton this index was
	// customized from, and the metric-dependent half of the customization
	// state — win[g], the elected member of pair group g (its joint minimum,
	// earliest on ties), −1 until decided. A shortcut's children are the
	// winners of its two child groups, and the query reads only winners: the
	// plan numbers groups in query-list order, so a list is a slice of win.
	// grpW[p][g] is silo p's partial of win[g]: a customized index keeps one
	// partial vector per group, not per arc, because a shortcut's is the sum
	// of its two child groups' (see partial).
	skel *Skeleton
	win  []int32
	grpW [][]int64
}

// BuildStats reports the construction cost of the index.
type BuildStats struct {
	Shortcuts int
	SAC       mpc.Stats // secure-comparison usage during construction
	WallTime  time.Duration

	// Schedule statistics. A build counts independent-set contraction rounds
	// and the vertices each contracts; a customization counts scheduler
	// ticks (one Fed-SAC instance each) and the comparisons each carries.
	Rounds        int     // contraction rounds (build) or ticks (customization)
	MaxRoundWidth int     // largest round or tick
	AvgRoundWidth float64 // mean round or tick width
	// RoundsSaved counts the MPC communication rounds avoided by resolving
	// independent decisions through batched Fed-SAC: each batch of k
	// comparisons pays RoundsPerCompare rounds once instead of k times.
	RoundsSaved     int64
	OrderingTime    time.Duration // public plaintext ordering phase
	ContractionTime time.Duration // federated contraction phase

	// Customization statistics (customizable-contraction indexes only).
	Customized bool // index came from Customize over a skeleton, not Build
	Levels     int  // customization sweep depth (deepest shortcut level)
}

// Federation returns the federation this index belongs to.
func (x *Index) Federation() *fed.Federation { return x.f }

// Rank returns the contraction rank of v (higher = more important).
func (x *Index) Rank(v graph.Vertex) int32 { return x.rank[v] }

// NumArcs reports the overlay arc count (base arcs + shortcuts).
func (x *Index) NumArcs() int { return len(x.tail) }

// NumShortcuts reports how many shortcuts the index holds.
func (x *Index) NumShortcuts() int { return len(x.tail) - x.numBase }

// BuildStatistics reports the construction cost.
func (x *Index) BuildStatistics() BuildStats { return x.buildStats }

// Customized reports whether this index was derived from a topology skeleton
// by weight customization (as opposed to a witness-pruned federated build).
func (x *Index) Customized() bool { return x.skel != nil }

// Skeleton returns the topology skeleton a customized index was derived
// from, or nil for a witness-built index.
func (x *Index) Skeleton() *Skeleton { return x.skel }

// Tail returns the overlay arc's source vertex.
func (x *Index) Tail(a int32) graph.Vertex { return x.tail[a] }

// Head returns the overlay arc's destination vertex.
func (x *Index) Head(a int32) graph.Vertex { return x.head[a] }

// Via returns the shortcut's contracted middle vertex, or NoShortcut for a
// base arc.
func (x *Index) Via(a int32) graph.Vertex { return x.via[a] }

// UpOut returns v's out-arcs toward higher-ranked vertices; on a customized
// index one per pair group, its winner.
func (x *Index) UpOut(v graph.Vertex) []int32 {
	if x.skel != nil {
		return x.winners(2 * int32(v))
	}
	return x.upOut[v]
}

// DownIn returns v's in-arcs from higher-ranked vertices; on a customized
// index one per pair group, its winner.
func (x *Index) DownIn(v graph.Vertex) []int32 {
	if x.skel != nil {
		return x.winners(2*int32(v) + 1)
	}
	return x.downIn[v]
}

// winners is query list l of a customized index (see custPlan.qStart).
func (x *Index) winners(l int32) []int32 {
	q := x.skel.Plan().qStart
	return x.win[q[l]:q[l+1]:q[l+1]]
}

// children returns the two overlay arcs shortcut a is composed of.
func (x *Index) children(a int32) (int32, int32) {
	if x.skel == nil {
		return x.childA[a], x.childB[a]
	}
	kids := x.skel.Plan().kids[2*(a-int32(x.numBase)):]
	return x.win[kids[0]], x.win[kids[1]]
}

// Partial returns the per-silo partial weight vector of an overlay arc.
func (x *Index) Partial(a int32) fed.Partial {
	out := x.f.ZeroPartial()
	for p := range out {
		out[p] = x.partial(p, a)
	}
	return out
}

// SiloWeight returns silo p's private partial weight of an overlay arc.
func (x *Index) SiloWeight(p int, a int32) int64 { return x.partial(p, a) }

// partial is silo p's partial weight of overlay arc a: a base arc's is the
// silo's weight at the index's version, a witness shortcut's is stored, and a
// customized shortcut's is the sum of its child groups' winners'.
func (x *Index) partial(p int, a int32) int64 {
	nb := int32(x.numBase)
	switch {
	case a < nb:
		return x.f.Silo(p).Weight(graph.Arc(a))
	case x.skel == nil:
		return x.scW[p][a-nb]
	}
	kids := x.skel.Plan().kids[2*(a-nb):]
	return x.grpW[p][kids[0]] + x.grpW[p][kids[1]]
}

// JointWeight sums the partial weights of an overlay arc — evaluation-only,
// used by the test suite as ground truth.
func (x *Index) JointWeight(a int32) int64 {
	var s int64
	for p := 0; p < x.f.P(); p++ {
		s += x.partial(p, a)
	}
	return s
}

// Unpack expands an overlay arc into the base-graph vertex sequence it
// represents, from its tail to its head inclusive.
func (x *Index) Unpack(a int32) []graph.Vertex {
	if x.via[a] == NoShortcut {
		return []graph.Vertex{x.tail[a], x.head[a]}
	}
	ca, cb := x.children(a)
	return append(x.Unpack(ca), x.Unpack(cb)[1:]...)
}

// UnpackArcs expands an overlay arc into the sequence of base-graph arc IDs
// it represents.
func (x *Index) UnpackArcs(a int32) []int32 {
	if x.via[a] == NoShortcut {
		return []int32{a}
	}
	ca, cb := x.children(a)
	return append(x.UnpackArcs(ca), x.UnpackArcs(cb)...)
}

// addArcToQueryLists routes an overlay arc into upOut or downIn.
func (x *Index) addArcToQueryLists(a int32) {
	u, w := x.tail[a], x.head[a]
	if x.rank[w] > x.rank[u] {
		x.upOut[u] = append(x.upOut[u], a)
	} else {
		x.downIn[w] = append(x.downIn[w], a)
	}
}
