package core

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

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
// 5 levels (the μ fold's one match shares the first), and each replay of the
// second step would have taken 3 more instances.
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
		// Builds 16+16, the fold's 1, the check's 2 and each replay's first.
		if st.SAC.Compares != 37 || st.Queue.Total() != 34 || st.Queue.Pop != 2 {
			t.Fatalf("batched=%v: %d Fed-SACs, queue %+v; want 37 and a queue charged 16+16 build + 2 pop",
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

// stopAndMuCompares replays e's SPSP in plaintext — joint sums compared in
// the clear, each queue a scan for its minimum — and counts the comparisons
// the search makes outside its queues: the stopping rule's and the μ
// fold's in n, and under Options.PruneStaged the prune's in pruned. It
// follows the secure search step by step whenever no two queued keys tie,
// which the fixture's random weights make so.
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
		forward, done, settle bool
		q                     []*item
		top                   *item
		settled               map[graph.Vertex]fed.Partial
		best                  map[graph.Vertex]int64 // the queued path's key
		est                   lb.Estimator
	}
	start := func(v graph.Vertex, fwd bool, est lb.Estimator) *plainSide {
		return &plainSide{forward: fwd, est: est, settled: map[graph.Vertex]fed.Partial{},
			best: map[graph.Vertex]int64{}, q: []*item{{v: v, key: est.Potential(v), g: e.f.ZeroPartial()}}}
	}
	sides := [2]*plainSide{start(s, true, estF), start(tt, false, estB)}
	var mu fed.Partial
	for {
		live := false
		for _, sd := range sides {
			sd.top, sd.settle = nil, false
			if sd.done || len(sd.q) == 0 {
				sd.done = true
				continue
			}
			min := 0
			for i, it := range sd.q {
				if jointSum(it.key) < jointSum(sd.q[min].key) {
					min = i
				}
			}
			sd.top, live = sd.q[min], true
			sd.q = append(sd.q[:min], sd.q[min+1:]...)
			_, dup := sd.settled[sd.top.v]
			sd.settle = !dup
		}
		if !live {
			return n, pruned
		}
		for _, sd := range sides {
			if sd.settle && mu != nil {
				n++
				if jointSum(sd.top.key) >= jointSum(mu) {
					sd.done, sd.settle = true, false
				}
			}
		}
		for _, sd := range sides {
			if sd.settle {
				sd.settled[sd.top.v] = sd.top.g
			}
		}
		var cands []fed.Partial
		for i, sd := range sides {
			if !sd.settle {
				continue
			}
			other := sides[1-i]
			mirrored := !sd.forward && other.settle && other.top.v == sd.top.v
			if lbl, both := other.settled[sd.top.v]; both && !mirrored {
				cands = append(cands, fed.SumPartial(sd.top.g, lbl))
			}
			var batch []*item
			for _, at := range exp.arcs(sd.top.v, sd.forward) {
				if _, dup := sd.settled[at.to]; dup {
					continue
				}
				ng := make(fed.Partial, e.f.P())
				exp.addWeight(ng, sd.top.g, at.arc)
				if lbl, crossed := other.settled[at.to]; crossed {
					cands = append(cands, fed.SumPartial(ng, lbl))
				}
				key := ng
				if pot := sd.est.Potential(at.to); pot != nil {
					key = fed.SumPartial(ng, pot)
				}
				batch = append(batch, &item{v: at.to, key: key, g: ng})
			}
			if !e.opt.PruneStaged {
				sd.q = append(sd.q, batch...)
				continue
			}
			// The prune: every path against the queued one to its vertex as
			// the batch found it, else against the μ the step started with.
			keep := make([]bool, len(batch))
			for i, it := range batch {
				b, queued := sd.best[it.v]
				switch {
				case queued:
					keep[i] = jointSum(it.key) < b
				case mu != nil:
					keep[i] = jointSum(it.key) < jointSum(mu)
				default:
					keep[i] = true
					continue
				}
				pruned++
			}
			for i, it := range batch {
				if keep[i] {
					sd.q = append(sd.q, it)
					sd.best[it.v] = jointSum(it.key)
				}
			}
		}
		if mu != nil {
			cands = append(cands, mu)
		}
		if len(cands) > 1 {
			n += int64(len(cands) - 1)
		}
		for _, c := range cands {
			if mu == nil || jointSum(c) < jointSum(mu) {
				mu = c
			}
		}
	}
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
