package core

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
)

// TestLockstepStopFlagDropsLaterPairs: a thread whose flag another thread
// raises after tick 2 sends no pair after tick 2 — its later calls get
// all-false bits and are counted as dropped — and every other thread's
// pairs sit in the same ticks as in the gang where nobody raises the flag.
func TestLockstepStopFlagDropsLaterPairs(t *testing.T) {
	run := func(raise bool) (*scriptCmp, *stopFlag, []bool) {
		base := runtime.NumGoroutine()
		inner, stop := &scriptCmp{}, &stopFlag{}
		var ok [2]bool
		var stopped []bool // the stopped thread's answers to 1 < 2
		lockstep(inner, []*stopFlag{nil, stop, nil},
			compares(100, 5, &ok[0]),
			func(c comparator) {
				for i := 0; i < 5; i++ {
					stopped = append(stopped, less(c, 1, 2))
				}
			},
			func(c comparator) {
				compares(300, 2, &ok[1])(c)
				stop.raised = raise // from the bits of tick 2
				compares(300, 2, &ok[1])(c)
			},
		)
		waitGoroutines(t, base)
		if !ok[0] || !ok[1] {
			t.Fatalf("raise=%v: the other threads got foreign bits: %v", raise, ok)
		}
		return inner, stop, stopped
	}
	full, none, _ := run(false)
	cut, stop, stopped := run(true)
	if none.dropped != 0 || !reflect.DeepEqual(full.widths, []int{3, 3, 3, 3, 2}) {
		t.Fatalf("unraised flag: widths %v, dropped %d", full.widths, none.dropped)
	}
	if want := []int{3, 3, 2, 2, 1}; !reflect.DeepEqual(cut.widths, want) {
		t.Fatalf("ticks %v, want %v: the stopped thread leaves after tick 2", cut.widths, want)
	}
	var others []int64
	for i, pr := range full.pairs {
		if pr[0][0] != 1 || i < 6 { // the stopped thread's pairs of ticks 1 and 2 stay
			others = append(others, pr[0][0])
		}
	}
	for i, pr := range cut.pairs {
		if pr[0][0] != others[i] {
			t.Fatalf("pair %d is thread value %d, want %d: the other threads' ticks moved", i, pr[0][0], others[i])
		}
	}
	if stop.dropped != 3 || !reflect.DeepEqual(stopped, []bool{true, true, false, false, false}) {
		t.Fatalf("stopped thread: answers %v, %d pairs dropped, want 3 after two real answers", stopped, stop.dropped)
	}
}

// starFederation is a route s=0 → t=1 with a direct arc of joint cost 30 and
// leaves detours 0 → i → 1 of 300 each: the first step settles s and t, and
// meets across the direct arc; in the second, each side's champion ties μ,
// so the stopping rule stops both sides at once while each queue holds a
// tournament of leaves+1 items.
func starFederation(t *testing.T, leaves int, weight func(p int, a graph.Arc) int64) *fed.Federation {
	t.Helper()
	b := graph.NewBuilder(2 + leaves)
	b.AddArc(0, 1)
	for i := 2; i < 2+leaves; i++ {
		b.AddArc(0, graph.Vertex(i))
		b.AddArc(graph.Vertex(i), 1)
	}
	g := b.Build()
	w0 := make(graph.Weights, g.NumArcs())
	sets := make([]graph.Weights, 3)
	for p := range sets {
		sets[p] = make(graph.Weights, g.NumArcs())
		for a := range sets[p] {
			w0[a], sets[p][a] = 100, 100
			if g.Tail(graph.Arc(a)) == 0 && g.Head(graph.Arc(a)) == 1 {
				w0[a], sets[p][a] = 10, 10
			}
			if weight != nil {
				sets[p][a] = weight(p, graph.Arc(a))
			}
		}
	}
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBothSidesStopInOneInstance: a route whose two sides stop in the same
// step spends exactly one instance on that step — the stopping-rule check
// and the first pair of each pop replay — and none on the rest of either
// replay. With 16 leaves the first step's tournament builds of 17 items take
// 5 levels, and each replay of the second step would have taken 3 more
// instances. The first step's only μ candidate is the backward settle's
// crossing of the direct arc (the forward side's queued path over the same
// arc is the same meeting, taken once), so μ is set without a comparison.
func TestBothSidesStopInOneInstance(t *testing.T) {
	f := starFederation(t, 16, nil)
	for _, batched := range []bool{true, false} {
		e, err := NewEngine(f, Options{Queue: pq.KindTMTree, BatchedMPC: batched})
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := e.SPSP(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || jointSum(res.Partial) != 30 || !reflect.DeepEqual(res.Path, []graph.Vertex{0, 1}) {
			t.Fatalf("batched=%v: route %+v, want 0→1 at 30", batched, res)
		}
		// Builds 16+16, the check's 2 and each replay's first.
		if st.SAC.Compares != 36 || st.Queue.Total() != 34 || st.Queue.Pop != 2 {
			t.Fatalf("batched=%v: %d Fed-SACs, queue %+v; want 36 and a queue charged 16+16 build + 2 pop",
				batched, st.SAC.Compares, st.Queue)
		}
		if batched {
			if got := st.SAC.Rounds / mpc.RoundsPerCompare; got != 5+1 {
				t.Fatalf("%d instances, want 5 for the first step and 1 for the stopping one", got)
			}
		}
	}
}

// TestPruneStagesOnlyPathsThatCanWin: on a route 0→1 over a direct arc of
// 10 per silo, the forward side also reaches 2 at 1 and 4 at 2; from 2 it
// reaches 5 at 3, 3 at 101 and 6 at 10, and from 4 it reaches 5 again at 4.
// The first step sets μ = 10 and queues everything, having nothing to
// compare with. Pruned, the second step drops 3 and 6, whose keys are not
// below that μ, and the third drops the path to 5 through 4, which loses to
// the queued one through 2: 7 pushes (the two sources included) and 4
// prune comparisons, against 10 pushes unpruned, for the same route.
func TestPruneStagesOnlyPathsThatCanWin(t *testing.T) {
	arcs := map[[2]graph.Vertex]int64{{0, 1}: 10, {0, 2}: 1, {0, 4}: 2, {2, 5}: 2, {2, 3}: 100, {2, 6}: 9, {4, 5}: 2}
	b := graph.NewBuilder(7)
	for a := range arcs {
		b.AddArc(a[0], a[1])
	}
	g := b.Build()
	w := make(graph.Weights, g.NumArcs())
	for a := range w {
		w[a] = arcs[[2]graph.Vertex{g.Tail(graph.Arc(a)), g.Head(graph.Arc(a))}]
	}
	f, err := fed.New(g, w, []graph.Weights{w, w, w}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, batched := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			e, err := NewEngine(f, Options{Queue: pq.KindTMTree, BatchedMPC: batched, PruneStaged: prune})
			if err != nil {
				t.Fatal(err)
			}
			res, st, err := e.SPSP(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || jointSum(res.Partial) != 30 || !reflect.DeepEqual(res.Path, []graph.Vertex{0, 1}) {
				t.Fatalf("batched=%v prune=%v: route %+v, want 0→1 at 30", batched, prune, res)
			}
			pushes, compares := int64(10), int64(0)
			if prune {
				pushes, compares = 7, 4
			}
			if st.Queue.Pushes != pushes || st.PruneCompares != compares {
				t.Fatalf("batched=%v prune=%v: %d pushes and %d prune comparisons, want %d and %d",
					batched, prune, st.Queue.Pushes, st.PruneCompares, pushes, compares)
			}
		}
	}
}

// plainCmp decides every pair in the clear, by joint sums, as Fed-SAC does
// in secret.
type plainCmp struct{}

func (plainCmp) LessBatch(pairs [][2]fed.Partial) []bool {
	out := make([]bool, len(pairs))
	for i, pr := range pairs {
		out[i] = jointSum(pr[0]) < jointSum(pr[1])
	}
	return out
}

func (plainCmp) Err() error { return nil }

// stopAndMuCompares replays e's SPSP in plaintext — joint sums compared in
// the clear — and counts the comparisons the search makes outside its
// queues: the stopping rule's and the μ fold's in n, and under
// Options.PruneStaged the prune's in pruned. Its two sides are lockstep
// threads over the engine's queue structure, as in the secure search, each
// starting its next step as soon as its commit ends, so their steps take the
// same ticks and each settle, fold and prune sees the other side's search as
// the secure one's does; the stops, candidates, folds and prunes are its
// own.
func stopAndMuCompares(t *testing.T, e *Engine, s, tt graph.Vertex) (n, pruned int64) {
	t.Helper()
	var exp expander = &flatExpander{f: e.f}
	if e.opt.Index != nil {
		exp = &chExpander{f: e.f, idx: e.opt.Index}
	}
	estF, estB, err := lb.NewPair(e.opt.Estimator, e.f, e.opt.Landmarks, e.f.NewSAC(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	type plainSide struct {
		forward bool
		q       *searchQueue
		done    stopFlag
		settled map[graph.Vertex]fed.Partial
		queued  map[graph.Vertex]*item // the last path queued to each vertex
		pending []*item                // the paths awaiting their prune bits
		est     lb.Estimator
	}
	start := func(v graph.Vertex, fwd bool, est lb.Estimator) *plainSide {
		src := &item{v: v, key: est.Potential(v), g: e.f.ZeroPartial(), parc: -1}
		sd := &plainSide{forward: fwd, q: e.newQueue(plainCmp{}), est: est,
			settled: map[graph.Vertex]fed.Partial{}, queued: map[graph.Vertex]*item{v: src}}
		sd.q.stageOn(plainCmp{}, []*item{src})(plainCmp{})
		return sd
	}
	fwd, bwd := start(s, true, estF), start(tt, false, estB)
	counted := func(c comparator) func([][2]fed.Partial) []bool {
		return func(pairs [][2]fed.Partial) []bool {
			n += int64(len(pairs))
			return c.LessBatch(pairs)
		}
	}
	var mu fed.Partial
	sets := 0
	fold := func(c comparator, cands []fed.Partial) {
		if mu != nil {
			cands = append([]fed.Partial{mu}, cands...)
		}
		if len(cands) == 0 {
			return
		}
		from := sets
		win := fed.EarliestMin(counted(c), [][]fed.Partial{cands})[0]
		if from > 0 && win == 0 && sets != from {
			return // the other side set μ meanwhile, below the old μ that won here
		}
		for sets != from { // the winner plays each μ the other side set meanwhile
			from = sets
			if !counted(c)([][2]fed.Partial{{cands[win], mu}})[0] {
				return
			}
		}
		mu, sets = cands[win], sets+1
	}
	step := func(c comparator, sd, other *plainSide, top *item) (commit func(comparator)) {
		if _, dup := sd.settled[top.v]; dup {
			return nil
		}
		if mu != nil && !counted(c)([][2]fed.Partial{{top.key, mu}})[0] {
			sd.done.raised = true
			return nil
		}
		sd.settled[top.v] = top.g
		var cands []fed.Partial
		var viaQueued []*item // the other side's queued and pending paths to top.v
		if q, ok := other.queued[top.v]; ok {
			viaQueued = append(viaQueued, q)
		}
		for _, q := range other.pending {
			if q.v == top.v {
				viaQueued = append(viaQueued, q)
			}
		}
		if g, both := other.settled[top.v]; both {
			cands, viaQueued = append(cands, fed.SumPartial(top.g, g)), nil
		}
		var batch []*item
		crossed := map[int32]bool{}
		for _, at := range exp.arcs(top.v, sd.forward) {
			if _, dup := sd.settled[at.to]; dup {
				continue
			}
			ng := make(fed.Partial, e.f.P())
			exp.addWeight(ng, top.g, at.arc)
			if g, ok := other.settled[at.to]; ok {
				cands, crossed[at.arc] = append(cands, fed.SumPartial(ng, g)), true
			}
			key := ng
			if pot := sd.est.Potential(at.to); pot != nil {
				key = fed.SumPartial(ng, pot)
			}
			batch = append(batch, &item{v: at.to, key: key, g: ng, parc: at.arc})
		}
		for _, q := range viaQueued {
			if !crossed[q.parc] { // one meeting per arc
				cands = append(cands, fed.SumPartial(top.g, q.g))
			}
		}
		stepMu := mu
		lockstep(c, nil, func(c comparator) { fold(c, cands) }, func(c comparator) {
			if !e.opt.PruneStaged {
				for _, it := range batch {
					sd.queued[it.v] = it
				}
				commit = sd.q.stageOn(c, batch)
				return
			}
			// The prune: every path against the queued one to its vertex as
			// the batch found it, else against the μ of the settle.
			var ready, contested []*item
			var pre [][2]*item
			for _, it := range batch {
				if q, ok := sd.queued[it.v]; ok {
					contested, pre = append(contested, it), append(pre, [2]*item{it, q})
				} else if stepMu != nil {
					contested, pre = append(contested, it), append(pre, [2]*item{it, {key: stepMu}})
				} else {
					ready = append(ready, it)
				}
			}
			for _, it := range ready {
				sd.queued[it.v] = it
			}
			pruned += int64(len(pre))
			sd.pending = contested
			commit = sd.q.stageJoinOn(c, ready, pre, func(wins []bool) (kept []*item) {
				sd.pending = nil
				for i, it := range contested {
					if wins[i] {
						kept, sd.queued[it.v] = append(kept, it), it
					}
				}
				return kept
			})
		})
		return commit
	}
	run := func(sd, other *plainSide) func(comparator) {
		return func(c comparator) {
			for !sd.done.raised {
				top, ok := sd.q.q.Peek()
				if !ok {
					sd.done.raised = true
					return
				}
				var commit func(comparator)
				lockstep(c, []*stopFlag{nil, &sd.done}, func(c comparator) { commit = step(c, sd, other, top) }, sd.q.popOn)
				if commit != nil {
					commit(c)
				}
			}
		}
	}
	lockstep(plainCmp{}, nil, run(fwd, bwd), run(bwd, fwd))
	return n, pruned
}

// TestQueueCountsChargeOnlyComparisonsMade: over routes (flat, and indexed
// with Fed-AMPS, each also as RouteOptions runs them, pruned) and kNN, a
// query's queue counts plus its stopping-rule, μ and prune comparisons are
// exactly its Fed-SACs — a pair a stopped side's replay dropped is charged
// nowhere — and batched and unbatched mode make the same comparisons and
// charge the same queue and prune counts.
func TestQueueCountsChargeOnlyComparisonsMade(t *testing.T) {
	fx := newFixture(t, "roadlike", 61, mpc.ModeIdeal)
	rng := rand.New(rand.NewPCG(61, 62))
	n := fx.f.Graph().NumVertices()
	for _, opt := range []Options{
		{Queue: pq.KindTMTree},
		{Queue: pq.KindTMTree, Estimator: lb.FedAMPS, Index: fx.idx},
		RouteOptions(nil),
		RouteOptions(fx.idx),
	} {
		for trial := 0; trial < 10; trial++ {
			s, tt := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
			var stats [2]QueryStats
			for i, batched := range []bool{false, true} {
				opt.BatchedMPC = batched
				res, st, err := fx.engine(t, opt).SPSP(s, tt)
				if err != nil {
					t.Fatal(err)
				}
				fx.checkSPSP(t, res, s, tt)
				stats[i] = st
			}
			other, pruned := stopAndMuCompares(t, fx.engine(t, opt), s, tt)
			for i, st := range stats {
				if st.PruneCompares != pruned || st.Queue.Total()+other+pruned != st.SAC.Compares {
					t.Fatalf("route %d→%d index=%v prune=%v batched=%v: queue %d + stop/μ %d + prune %d (want %d) ≠ %d Fed-SACs",
						s, tt, opt.Index != nil, opt.PruneStaged, i == 1, st.Queue.Total(), other, st.PruneCompares, pruned, st.SAC.Compares)
				}
			}
			if stats[0].SAC.Compares != stats[1].SAC.Compares || stats[0].Queue != stats[1].Queue {
				t.Fatalf("route %d→%d index=%v prune=%v: unbatched %d Fed-SACs, queue %+v; batched %d, %+v",
					s, tt, opt.Index != nil, opt.PruneStaged, stats[0].SAC.Compares, stats[0].Queue, stats[1].SAC.Compares, stats[1].Queue)
			}
		}
	}
	for trial := 0; trial < 6; trial++ {
		src := graph.Vertex(rng.IntN(n))
		var stats [2]QueryStats
		for i, batched := range []bool{false, true} {
			res, st, err := fx.engine(t, Options{Queue: pq.KindTMTree, BatchedMPC: batched}).SSSP(src, 20)
			if err != nil || len(res) != 20 {
				t.Fatalf("kNN from %d: %d results, %v", src, len(res), err)
			}
			if st.Queue.Total() != st.SAC.Compares {
				t.Fatalf("kNN from %d batched=%v: queue %d ≠ %d Fed-SACs", src, batched, st.Queue.Total(), st.SAC.Compares)
			}
			stats[i] = st
		}
		if stats[0].SAC.Compares != stats[1].SAC.Compares || stats[0].Queue != stats[1].Queue {
			t.Fatalf("kNN from %d: modes disagree: %+v vs %+v", src, stats[0].Queue, stats[1].Queue)
		}
	}
}

// TestLaterSettleFindsUpwardCrossing: on the shortcut index of two vertices
// joined both ways, the route from the lower-ranked vertex s to the higher
// t crosses on the arc s→t, which only the forward side relaxes (upward).
// The forward side settles s and queues its path to t there. That step makes
// no comparison, so the forward side settles t next, before the backward
// side has run, and takes the backward side's queued path to t, its source,
// as the μ candidate: a meeting at t. Under RouteOptions (Fed-AMPS) the
// backward side's champion t then fails the stopping rule instead of being
// settled: two settles and one Fed-SAC (three settles without the
// candidate). Without an estimator t's backward key is 0, below μ, so the
// backward side settles t as well and its fold plays that meeting against
// μ: three settles and two Fed-SACs.
func TestLaterSettleFindsUpwardCrossing(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddArc(0, 1)
	b.AddArc(1, 0)
	g := b.Build()
	w := graph.Weights{7, 9}
	f, err := fed.New(g, w, []graph.Weights{{5, 4}, {7, 9}, {9, 14}}, mpc.Params{Mode: mpc.ModeIdeal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	s, tt := graph.Vertex(0), graph.Vertex(1)
	if idx.Rank(s) > idx.Rank(tt) {
		s, tt = tt, s
	}
	if len(idx.DownIn(tt)) != 0 || len(idx.UpOut(s)) != 1 {
		t.Fatalf("fixture: the backward side must relax nothing from %d, the forward side one arc from %d", tt, s)
	}
	for _, c := range []struct {
		opt               Options
		settles, compares int
	}{
		{RouteOptions(idx), 2, 1},                         // the stopping-rule check
		{Options{Queue: pq.KindTMTree, Index: idx}, 3, 2}, // the check and the fold
	} {
		res, st, err := fx(f).engine(t, c.opt).SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx(f).checkSPSP(t, res, s, tt)
		if st.SettledVertices != c.settles || st.SAC.Compares != int64(c.compares) {
			t.Fatalf("prune=%v: %d settles and %d Fed-SACs, want %d and %d",
				c.opt.PruneStaged, st.SettledVertices, st.SAC.Compares, c.settles, c.compares)
		}
	}
}

// fx wraps a federation as a test fixture.
func fx(f *fed.Federation) *fixture { return &fixture{f: f, joint: f.JointWeights()} }
