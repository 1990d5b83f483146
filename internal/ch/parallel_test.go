package ch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// serializeAll captures everything observable about an index: the public
// structure bytes and every silo's weight shard.
func serializeAll(t *testing.T, x *Index) [][]byte {
	t.Helper()
	var pub bytes.Buffer
	if err := x.WritePublic(&pub); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{pub.Bytes()}
	for p := 0; p < len(x.siloW); p++ {
		var b bytes.Buffer
		if err := x.WriteSiloWeights(p, &b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// network is a named seeded test graph.
type network struct {
	name string
	g    *graph.Graph
	w0   graph.Weights
}

func buildVariant(t *testing.T, g *graph.Graph, w0 graph.Weights, sets []graph.Weights, seed uint64, prm Params) *Index {
	t.Helper()
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildWith(f, prm)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParallelBuildEquivalence is the determinism contract of the builder:
// the built index — ordering, shortcut set, skip records, every silo's
// partial weights — is byte-for-byte the same on every run.
func TestParallelBuildEquivalence(t *testing.T) {
	gr, wr := graph.GenerateRoadLike(180, 21)
	gg, wg := graph.GenerateGrid(7, 8, 33)
	for _, net := range []network{{"road", gr, wr}, {"grid", gg, wg}} {
		t.Run(net.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				sets := traffic.SiloWeights(net.w0, 3, traffic.Moderate, seed)
				ref := buildVariant(t, net.g, net.w0, sets, seed, Params{})
				refBytes := serializeAll(t, ref)
				x := buildVariant(t, net.g, net.w0, sets, seed, Params{})
				if got, want := x.NumShortcuts(), ref.NumShortcuts(); got != want {
					t.Fatalf("seed %d: %d shortcuts, first build has %d", seed, got, want)
				}
				for v := 0; v < net.g.NumVertices(); v++ {
					if x.Rank(graph.Vertex(v)) != ref.Rank(graph.Vertex(v)) {
						t.Fatalf("seed %d: rank of vertex %d differs", seed, v)
					}
				}
				for i, b := range serializeAll(t, x) {
					if !bytes.Equal(b, refBytes[i]) {
						part := "public structure"
						if i > 0 {
							part = "silo weight shard"
						}
						t.Fatalf("seed %d: %s differs from the first build", seed, part)
					}
				}
			}
		})
	}
}

// TestParallelBuildRepeatable: two runs with identical inputs produce
// identical bytes (no map-iteration order leaks into the result).
func TestParallelBuildRepeatable(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(150, 7)
	sets := traffic.SiloWeights(w0, 4, traffic.Heavy, 9)
	a := serializeAll(t, buildVariant(t, g, w0, sets, 5, Params{}))
	b := serializeAll(t, buildVariant(t, g, w0, sets, 5, Params{}))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("part %d differs between two identical builds", i)
		}
	}
}

// TestParallelBuildStats sanity-checks the contraction schedule statistics:
// multiple vertices per independent-set round, and batching accounted as
// saved MPC rounds.
func TestParallelBuildStats(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(200, 11)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 12)
	x := buildVariant(t, g, w0, sets, 13, Params{})
	st := x.BuildStatistics()
	if st.Rounds <= 0 || st.Rounds >= g.NumVertices() {
		t.Fatalf("Rounds = %d, want within (0,%d): independent sets should batch vertices", st.Rounds, g.NumVertices())
	}
	if st.MaxRoundWidth < 2 {
		t.Fatalf("MaxRoundWidth = %d, want >= 2", st.MaxRoundWidth)
	}
	if st.AvgRoundWidth <= 1 {
		t.Fatalf("AvgRoundWidth = %v, want > 1", st.AvgRoundWidth)
	}
	if st.RoundsSaved <= 0 {
		t.Fatalf("RoundsSaved = %d, want > 0", st.RoundsSaved)
	}
	if st.SAC.Rounds+st.RoundsSaved != st.SAC.Compares*int64(mpc.RoundsPerCompare) {
		t.Fatalf("round accounting inconsistent: %d rounds + %d saved != %d compares × %d",
			st.SAC.Rounds, st.RoundsSaved, st.SAC.Compares, mpc.RoundsPerCompare)
	}
}

// scheduleNets are the two seeded networks the schedule tests derive
// indexes on: a grid (the min-fill worst case, deep customization sweeps)
// and a road-like network.
func scheduleNets() []network {
	gg, wg := graph.GenerateGrid(12, 12, 72)
	gr, wr := graph.GenerateRoadLike(400, 71)
	return []network{{"grid", gg, wg}, {"road", gr, wr}}
}

// derive runs one seeded derivation on a fresh federation — a witness build,
// or a customization over a fresh skeleton — and returns the index with the
// SHA-256 of its WriteIndex bundle.
func derive(t *testing.T, g *graph.Graph, w0 graph.Weights, mode mpc.Mode, customize bool, prm Params) (*Index, string) {
	t.Helper()
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 73)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mode, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	var x *Index
	if customize {
		sk, err := BuildSkeleton(g, w0, Params{})
		if err != nil {
			t.Fatal(err)
		}
		x, err = CustomizeWith(f, sk, prm)
		if err != nil {
			t.Fatal(err)
		}
	} else if x, err = BuildWith(f, prm); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := x.WriteIndex(&b); err != nil {
		t.Fatal(err)
	}
	return x, fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// TestDerivationScheduleIgnoresGOMAXPROCS: every silo must derive the same
// protocol schedule from public information, so the Fed-SAC instance count,
// rounds, bytes and messages of a build or customization — and the index
// they produce — may not depend on the host's core count.
func TestDerivationScheduleIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		compares, rounds, bytes, messages int64
		sum                               string
	}
	for _, net := range scheduleNets() {
		for _, mode := range []mpc.Mode{mpc.ModeIdeal, mpc.ModeProtocol} {
			var prm Params
			if mode == mpc.ModeProtocol {
				// Shallow witness searches: same code path, far fewer
				// compares, so running the real protocol stays affordable.
				prm = Params{WitnessCap: 8, WitnessHops: 2}
			}
			for _, customize := range []bool{false, true} {
				var at1 outcome
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					x, sum := derive(t, net.g, net.w0, mode, customize, prm)
					sac := x.BuildStatistics().SAC
					got := outcome{sac.Compares, sac.Rounds, sac.Bytes, sac.Messages, sum}
					if procs == 1 {
						at1 = got
					} else if got != at1 {
						t.Fatalf("%s mode=%v customize=%v: GOMAXPROCS=1 gives %+v, GOMAXPROCS=%d gives %+v",
							net.name, mode, customize, at1, procs, got)
					}
				}
			}
		}
	}
}

// TestCustomizeRoundsAreTheCriticalPath: a customization level runs the
// bracket rounds of all its group tournaments together, so the sweep pays
// RoundsPerCompare rounds per bracket round of each level's LARGEST group —
// a number read off the skeleton's plan, with no sum over engines in it.
func TestCustomizeRoundsAreTheCriticalPath(t *testing.T) {
	for _, net := range scheduleNets() {
		x, _ := derive(t, net.g, net.w0, mpc.ModeIdeal, true, Params{})
		pl := x.Skeleton().Plan()
		var want int64
		for _, groups := range pl.groupsAt {
			largest := 0
			for _, g := range groups {
				largest = max(largest, len(pl.groups[g]))
			}
			if largest > 1 {
				want += int64(mpc.RoundsPerCompare * bits.Len(uint(largest-1))) // ⌈log2 largest⌉
			}
		}
		if got := x.BuildStatistics().SAC.Rounds; got != want {
			t.Fatalf("%s: customization spent %d rounds, critical path is %d", net.name, got, want)
		}
	}
}

// TestDerivedIndexBytesPinned pins the WriteIndex bundle of a seeded witness
// build and a seeded customization to the bytes the deleted forked-engine
// worker pool produced with a single worker, so "same index" is checked
// against a recorded value rather than against a second run of the same
// code.
func TestDerivedIndexBytesPinned(t *testing.T) {
	want := map[string][2]string{ // network -> {build, customize}
		"grid": {"4486192007d4b8530340e64cea331feb95a30cf38777d9f5d41c755a0edba26d",
			"9d2f9e87e87ef1e47822568545bb21bb53ed01f30fe0434e1b4f879d63b29d1f"},
		"road": {"1c6b26a6da9ebdfcf3fee11fe614b07f76ad7eb8796a8bb8abd5f422926cfcda",
			"fde37fd4e5dc96c05790097ff9a46cae152767edc6b5a8984ac026efe339a5ce"},
	}
	for _, net := range scheduleNets() {
		for i, customize := range []bool{false, true} {
			if _, sum := derive(t, net.g, net.w0, mpc.ModeIdeal, customize, Params{}); sum != want[net.name][i] {
				t.Fatalf("%s customize=%v: WriteIndex SHA-256 %s, pinned %s", net.name, customize, sum, want[net.name][i])
			}
		}
	}
}
