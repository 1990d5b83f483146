package core

import (
	"fmt"
	oldrand "math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// The parts of a search step a Fed-SAC instance can carry pairs of, told
// apart by the frames of the goroutine that asked for them.
const (
	partStop   = "stop"        // the stopping rule, on the step's driver thread
	partStage  = "prune+build" // a stage thread: the prune and the tournament build
	partFold   = "μ fold"
	partPop    = "pop replay"
	partCommit = "commit" // a staged push's merge, after the step
)

var ledgerParts = []string{partStop, partStage, partFold, partPop, partCommit}

// partOf names the part a goroutine's stack is running, or "" for none.
func partOf(stack string) string {
	switch {
	case strings.Contains(stack, ".popOn("):
		return partPop
	case strings.Contains(stack, "TMTree[...]).merge("):
		return partCommit
	case strings.Contains(stack, "TMTree[...]).Stage"): // Stage and StageJoin
		return partStage
	case strings.Contains(stack, "fed.EarliestMin"):
		return partFold
	}
	return ""
}

// tickOf reads, from inside a Fed-SAC instance, which parts put pairs in it
// and which lockstep threads wait on it. Every thread of a gang that has not
// returned is blocked in its handle's LessBatch while the instance runs; a
// blocked thread that runs no part and coordinates no gang of its own is a
// driver in its stopping-rule call. A gang of one runs on the goroutine that
// calls the instance.
func tickOf() (parts map[string]bool, threads map[string]bool) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	parts, threads = map[string]bool{}, map[string]bool{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		part := partOf(g)
		switch {
		case i == 0: // the caller
		case !strings.Contains(g, "(*lockstepThread).LessBatch("):
			continue
		case part == "" && !strings.Contains(g, "core.lockstep("):
			part = partStop
		}
		if part != "" {
			parts[part] = true
		}
		if i > 0 {
			threads[strings.Fields(g)[1]] = true
		}
	}
	return parts, threads
}

// TestRouteTickLedger logs where a production route's Fed-SAC instances go,
// over the repo benchmark's route_wire universe: its 2,048-vertex road
// network seeded 7, the customized index, and both clients' 64 OD pairs, in
// ideal mode, whose counts are the benchmark's. It classifies every instance
// by the parts that put pairs in it (one instance can carry several), counts
// the search steps that ran an instance, and how many of those the driver
// thread (stopping rule, prune, build, μ fold) makes longer than the pop
// replays. It fails only if an instance is not accounted for.
func TestRouteTickLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("a logging test")
	}
	g, w0 := graph.GenerateRoadLike(2048, 7)
	f, err := fed.New(g, w0, traffic.SiloWeights(w0, 3, traffic.Moderate, 7), mpc.Params{Mode: mpc.ModeIdeal, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ch.BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	type tick struct{ parts, threads map[string]bool }
	var ticks []tick
	view := f.WithDecide(func(inner fed.Decide) fed.Decide {
		return func(diffs [][]int64) ([]bool, error) {
			parts, threads := tickOf()
			ticks = append(ticks, tick{parts, threads})
			return inner(diffs)
		}
	})
	e, err := NewEngine(view, RouteOptions(idx))
	if err != nil {
		t.Fatal(err)
	}

	var routes, instances, steps, driverLast, driverLonger, sacs, pops, pruned, settled int64
	perPart := map[string]int64{}
	for client := int64(0); client < 2; client++ {
		rng := oldrand.New(oldrand.NewSource(7000 + client)) // the benchmark's odUniverse
		for i := 0; i < 64; i++ {
			s := graph.Vertex(rng.Intn(g.NumVertices()))
			tt := s
			for tt == s {
				tt = graph.Vertex(rng.Intn(g.NumVertices()))
			}
			ticks = ticks[:0]
			_, st, err := e.SPSP(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if n := st.SAC.Rounds / mpc.RoundsPerCompare; int64(len(ticks)) != n {
				t.Fatalf("route %d→%d: %d instances seen, %d counted", s, tt, len(ticks), n)
			}
			routes++
			instances += int64(len(ticks))
			sacs, pops, pruned, settled = sacs+st.SAC.Compares, pops+st.Queue.Pop, pruned+st.PruneCompares, settled+int64(st.SettledVertices)
			// A step's instances are consecutive and share a waiting thread:
			// no thread joins a gang after its first tick, and goroutine ids
			// are never reused.
			inStep := func(k int) bool { return k < len(ticks) && !ticks[k].parts[partCommit] }
			for k, tk := range ticks {
				if len(tk.parts) == 0 {
					t.Fatalf("route %d→%d: instance %d carries no part's pairs", s, tt, k)
				}
				for p := range tk.parts {
					perPart[p]++
				}
				if !inStep(k) {
					continue
				}
				if k == 0 || !inStep(k-1) || !sharesThread(ticks[k-1].threads, tk.threads) {
					steps++
				}
				if !inStep(k+1) || !sharesThread(tk.threads, ticks[k+1].threads) { // the step's last
					if tk.parts[partStop] || tk.parts[partStage] || tk.parts[partFold] {
						driverLast++
					}
					if !tk.parts[partPop] {
						driverLonger++
					}
				}
			}
		}
	}
	perRoute := func(n int64) float64 { return float64(n) / float64(routes) }
	var b strings.Builder
	fmt.Fprintf(&b, "%d routes, %d instances (%.2f per route); %d steps ran an instance, the driver thread's pairs are in the last of %d and the pop replays' are not in %d\n",
		routes, instances, perRoute(instances), steps, driverLast, driverLonger)
	fmt.Fprintf(&b, "  per route: %.2f Fed-SACs, %.2f pop replay comparisons, %.2f prune comparisons, %.2f settles\n",
		perRoute(sacs), perRoute(pops), perRoute(pruned), perRoute(settled))
	for _, p := range ledgerParts {
		fmt.Fprintf(&b, "  instances carrying %-11s %5d (%.2f per route)\n", p+":", perPart[p], perRoute(perPart[p]))
	}
	t.Log("\n" + b.String())
}

func sharesThread(a, b map[string]bool) bool {
	for th := range a {
		if b[th] {
			return true
		}
	}
	return false
}
