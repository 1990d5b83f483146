package core

import (
	"fmt"
	oldrand "math/rand"
	"regexp"
	"runtime"
	"slices"
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
	partCommit = "commit" // a staged push's merge, on the side's thread after its step
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

// sideTick is what one side of the search has in an instance: the parts
// that put pairs in it, the threads of its step's gang that wait on it (by
// goroutine id), and whether the side's own thread waits on it in its
// commit.
type sideTick struct {
	parts  map[string]bool
	gang   map[string]bool
	commit bool
}

var createdIn = regexp.MustCompile(`created by .* in goroutine (\d+)`)

// tickOf reads, from inside a Fed-SAC instance, which parts of which side
// put pairs in it. Every live thread of a gang is blocked in its handle's
// LessBatch while the instance runs; a blocked thread that runs no part and
// coordinates no gang of its own is a driver in its stopping-rule call (or
// its fold playing a new μ). A side is the thread the caller's gang started,
// and every thread a side's steps start descends from it; a thread the side
// started directly is one of its step's gang.
func tickOf() (parts map[string]bool, sides map[string]*sideTick) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	stacks := strings.Split(string(buf), "\n\n")
	parent := map[string]string{}
	for _, g := range stacks {
		if m := createdIn.FindStringSubmatch(g); m != nil {
			parent[strings.Fields(g)[1]] = m[1]
		}
	}
	caller := strings.Fields(stacks[0])[1]
	// below walks up from id to the ancestor whose parent is top.
	below := func(id, top string) string {
		for id != "" && parent[id] != top {
			id = parent[id]
		}
		return id
	}
	parts, sides = map[string]bool{}, map[string]*sideTick{}
	at := func(side string) *sideTick {
		if sides[side] == nil {
			sides[side] = &sideTick{parts: map[string]bool{}, gang: map[string]bool{}}
		}
		return sides[side]
	}
	for _, g := range stacks[1:] {
		id := strings.Fields(g)[1]
		side := below(id, caller)
		switch {
		case side == "":
		case strings.Contains(g, "(*lockstepThread).LessBatch("):
			part := partOf(g)
			if part == "" && !strings.Contains(g, "core.lockstep(") {
				part = partStop
			}
			if part != "" {
				parts[part] = true
				at(side).parts[part] = true
			}
			if id == side {
				at(side).commit = part == partCommit
			} else {
				at(side).gang[below(id, side)] = true
			}
		}
	}
	return parts, sides
}

// TestRouteTickLedger logs where a production route's Fed-SAC instances go,
// over the repo benchmark's route_wire universe: its 2,048-vertex road
// network seeded 7, the customized index, and both clients' 64 OD pairs, in
// ideal mode, whose counts are the benchmark's. It classifies every instance
// by the parts that put pairs in it (one instance can carry several) and by
// the sides that did, and counts each side's steps that ran an instance: a
// step's instances are those its gang waits on, the next sharing a thread
// with the last, then those of its commit. It fails if an instance or a
// comparison is not accounted for (the plaintext replay of
// TestQueueCountsChargeOnlyComparisonsMade) or a route is not the shortest.
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
	type tick struct {
		parts map[string]bool
		sides map[string]*sideTick
	}
	var ticks []tick
	view := f.WithDecide(func(inner fed.Decide) fed.Decide {
		return func(diffs [][]int64) ([]bool, error) {
			parts, sides := tickOf()
			ticks = append(ticks, tick{parts, sides})
			return inner(diffs)
		}
	})
	e, err := NewEngine(view, RouteOptions(idx))
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{f: f, joint: f.JointWeights()}

	var routes, instances, both, commitOnly, sacs, pops, pruned, settled int64
	var steps, sideInstances int64 // over both sides
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
			res, st, err := e.SPSP(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			fx.checkSPSP(t, res, s, tt)
			if n := st.SAC.Rounds / mpc.RoundsPerCompare; int64(len(ticks)) != n {
				t.Fatalf("route %d→%d: %d instances seen, %d counted", s, tt, len(ticks), n)
			}
			if other, _ := stopAndMuCompares(t, e, s, tt); st.Queue.Total()+other+st.PruneCompares != st.SAC.Compares {
				t.Fatalf("route %d→%d: queue %d + stop/μ %d + prune %d ≠ %d Fed-SACs",
					s, tt, st.Queue.Total(), other, st.PruneCompares, st.SAC.Compares)
			}
			routes++
			instances += int64(len(ticks))
			sacs, pops, pruned, settled = sacs+st.SAC.Compares, pops+st.Queue.Pop, pruned+st.PruneCompares, settled+int64(st.SettledVertices)
			var ids []string // the sides' threads
			for _, tk := range ticks {
				for id := range tk.sides {
					if !slices.Contains(ids, id) {
						ids = append(ids, id)
					}
				}
			}
			if len(ids) > 2 {
				t.Fatalf("route %d→%d: %d sides", s, tt, len(ids))
			}
			for k, tk := range ticks {
				if len(tk.parts) == 0 {
					t.Fatalf("route %d→%d: instance %d carries no part's pairs", s, tt, k)
				}
				for p := range tk.parts {
					perPart[p]++
				}
				if len(tk.parts) == 1 && tk.parts[partCommit] {
					commitOnly++
				}
				carrying := 0
				for _, sd := range tk.sides {
					if len(sd.parts) > 0 {
						carrying++
					}
				}
				if carrying == 2 {
					both++
				}
			}
			for _, id := range ids {
				var gang map[string]bool
				afterCommit := true
				for _, tk := range ticks {
					sd := tk.sides[id]
					if sd == nil || len(sd.parts) == 0 {
						continue
					}
					sideInstances++
					if len(sd.gang) > 0 {
						if afterCommit || !sharesThread(gang, sd.gang) {
							steps++
						}
						gang, afterCommit = sd.gang, false
					}
					afterCommit = afterCommit || sd.commit
				}
			}
		}
	}
	perRoute := func(n int64) float64 { return float64(n) / float64(routes) }
	var b strings.Builder
	fmt.Fprintf(&b, "%d routes, %d instances (%.2f per route): %d carry both sides' pairs, %d only commit pairs\n",
		routes, instances, perRoute(instances), both, commitOnly)
	fmt.Fprintf(&b, "  %d side steps ran an instance (%.2f per route), in %.2f instances each\n",
		steps, perRoute(steps), float64(sideInstances)/float64(steps))
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
