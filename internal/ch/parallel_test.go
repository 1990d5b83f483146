package ch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/big"
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
// SHA-256 of its WriteIndex stream.
func derive(t *testing.T, g *graph.Graph, w0 graph.Weights, mode mpc.Mode, customize bool, prm Params) (*Index, string) {
	t.Helper()
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 73)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mode, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	var x *Index
	if customize {
		sk, err := BuildSkeleton(g)
		if err != nil {
			t.Fatal(err)
		}
		x, err = Customize(f, sk)
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
		ticks, widest                     int // schedule statistics: instances run, largest one
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
					st := x.BuildStatistics()
					got := outcome{st.SAC.Compares, st.SAC.Rounds, st.SAC.Bytes, st.SAC.Messages, st.Rounds, st.MaxRoundWidth, sum}
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

// criticalPath evaluates the sweep's cost law on the public plan, with exact
// integers and without the scheduler: base arcs are final at tick 0, a
// shortcut when both child groups are decided, and a group whose members
// become final at ticks t_1..t_g is decided at T = ⌈log2 Σ 2^t_i⌉ (the Kraft
// sum: a member final at t has T−t ticks of halving left to share). Returns
// max T and the comparisons, Σ (g−1).
func criticalPath(sk *Skeleton) (ticks int, compares int64) {
	pl := sk.Plan()
	one := big.NewInt(1)
	tArc := make([]uint, len(sk.tail))
	tGrp := make([]int, pl.nGrp)
	for g := range tGrp {
		tGrp[g] = -1
	}
	decided := func(g int32) int {
		if tGrp[g] < 0 {
			sum := new(big.Int)
			for _, a := range pl.group(g) {
				sum.Add(sum, new(big.Int).Lsh(one, tArc[a]))
			}
			tGrp[g] = sum.Sub(sum, one).BitLen() // ⌈log2 sum⌉
		}
		return tGrp[g]
	}
	// A group's members all precede its first consumer in arc order.
	for a := sk.numBase; a < len(sk.tail); a++ {
		tArc[a] = uint(max(decided(pl.kids[2*(a-sk.numBase)]), decided(pl.kids[2*(a-sk.numBase)+1])))
	}
	for g := range tGrp {
		ticks = max(ticks, decided(int32(g)))
		compares += int64(len(pl.group(int32(g))) - 1)
	}
	return ticks, compares
}

// TestCustomizeRoundsAreTheCriticalPath: the sweep runs one Fed-SAC instance
// per tick of the comparison DAG's critical path, so a customization costs
// RoundsPerCompare × criticalPath rounds — a number read off the skeleton's
// plan, with no level structure and no weights in it. The 24×24 grid is the
// repository benchmark's refresh_grid network.
func TestCustomizeRoundsAreTheCriticalPath(t *testing.T) {
	g24, w24 := graph.GenerateGrid(24, 24, 7)
	for _, net := range append(scheduleNets(), network{"grid24", g24, w24}) {
		x, _ := derive(t, net.g, net.w0, mpc.ModeIdeal, true, Params{})
		ticks, compares := criticalPath(x.Skeleton())
		st := x.BuildStatistics()
		if st.SAC.Rounds != int64(mpc.RoundsPerCompare*ticks) || st.SAC.Compares != compares {
			t.Fatalf("%s: customization spent %d comparisons in %d rounds, the plan says %d in %d ticks",
				net.name, st.SAC.Compares, st.SAC.Rounds, compares, ticks)
		}
		if x.Skeleton().CriticalPath() != ticks || st.Rounds != ticks {
			t.Fatalf("%s: CriticalPath() = %d, BuildStats.Rounds = %d, closed form %d",
				net.name, x.Skeleton().CriticalPath(), st.Rounds, ticks)
		}
		if net.name == "grid24" {
			got := [4]int64{int64(ticks), st.SAC.Rounds, st.SAC.Compares, st.SAC.Bytes}
			if want := [4]int64{70, 560, 50028, 11744244}; got != want {
				t.Fatalf("grid24: ticks, rounds, comparisons, bytes = %v, pinned %v", got, want)
			}
		}
	}
}

// TestDerivedIndexBytesPinned pins the WriteIndex stream of a seeded witness
// build and a seeded customization to recorded values, so "same index" is
// checked against a recorded value rather than against a second run of the
// same code. The values are SHA-256(WritePublic ‖ WriteSiloWeights(0..2))
// computed at 9000629 — before the stream lost its FRIX framing, with those
// writers unchanged — whose framed bundles matched the bytes the deleted
// forked-engine worker pool produced with a single worker.
func TestDerivedIndexBytesPinned(t *testing.T) {
	want := map[string][2]string{ // network -> {build, customize}
		"grid": {"56d7ee716eb82878b8bb51b7f8e65ab67994770806876b10d7e344981c1ea3a6",
			"01a2d95bbbaee6a47ffd2e6a723ece77b45749b11aa870a535557602595955e5"},
		"road": {"8512d41bde17e753ac839a94927e3aac5ab284361334ec8d6d30653a76b7a1d1",
			"c1e1ca7cef614c2175e04aaf0e4aff2187c76f30dcd760a68736a3d2fea6cb24"},
	}
	for _, net := range scheduleNets() {
		for i, customize := range []bool{false, true} {
			if _, sum := derive(t, net.g, net.w0, mpc.ModeIdeal, customize, Params{}); sum != want[net.name][i] {
				t.Fatalf("%s customize=%v: WriteIndex SHA-256 %s, pinned %s", net.name, customize, sum, want[net.name][i])
			}
		}
	}
}
