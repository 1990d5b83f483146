package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// stagedRoutes is the root package's round-budget fixture (budgetFixture:
// a 1,500-vertex road network seeded 17, its witness index and 24 fixed
// pairs) with what each production route costs: settles and prune
// comparisons with each side stepping on its own clock, and the Fed-SAC
// instances it ran when a stage thread pruned in one instance and built its
// tournament after it (and the two sides' steps were paired), 400 in all.
// Where a side runs a step ahead of the μ the other is about to find, a
// route settles or prunes other than paired steps would: 1465→651's
// backward side settles 231 before the forward side, whose key there is
// still below μ, so both settle it; 679→237's forward side settles 1266
// before μ exists, so its three paths need no prune comparison; and
// 724→1456's forward side settles 1124, 645→276's backward side 431,
// before the settle that sets μ.
var stagedRoutes = []struct {
	s, t                       graph.Vertex
	settled, pruned, instances int64
}{
	{658, 1319, 9, 13, 17}, {1364, 990, 8, 8, 19}, {1269, 1212, 9, 13, 22}, {554, 1426, 10, 13, 21},
	{960, 484, 8, 11, 15}, {1090, 1089, 6, 10, 21}, {1059, 111, 7, 9, 15}, {1291, 1142, 4, 0, 7},
	{886, 1332, 8, 12, 22}, {1396, 1020, 9, 7, 21}, {370, 639, 4, 1, 7}, {1465, 651, 9, 7, 18},
	{682, 73, 8, 6, 15}, {781, 1418, 7, 6, 14}, {679, 237, 11, 15, 26}, {534, 1023, 8, 8, 17},
	{971, 251, 5, 3, 13}, {528, 474, 6, 0, 12}, {1285, 837, 7, 11, 15}, {302, 393, 8, 8, 13},
	{724, 1456, 11, 9, 16}, {1108, 768, 9, 14, 21}, {645, 276, 9, 11, 17}, {601, 1129, 7, 6, 16},
}

// TestStagedJoinKeepsSettlesAndPrunes: starting a route step's tournament
// in its prune's instance, with the prune's survivors joining later, moves
// comparisons to earlier instances and changes none of the search: on the
// budget fixture every route settles the pinned vertices and makes the
// pinned prune comparisons, answers exactly, and the routes run fewer
// instances in all than before the join.
func TestStagedJoinKeepsSettlesAndPrunes(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(1500, 17)
	f, err := fed.New(g, w0, traffic.SiloWeights(w0, 3, traffic.Moderate, 18), mpc.Params{Mode: mpc.ModeIdeal, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ch.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{f: f, joint: f.JointWeights(), idx: idx}
	e := fx.engine(t, RouteOptions(idx))
	rng := rand.New(rand.NewPCG(17, 38))
	var before, after int64
	for _, want := range stagedRoutes {
		s, tt := graph.Vertex(rng.IntN(g.NumVertices())), graph.Vertex(rng.IntN(g.NumVertices()))
		for s == tt {
			s, tt = graph.Vertex(rng.IntN(g.NumVertices())), graph.Vertex(rng.IntN(g.NumVertices()))
		}
		if s != want.s || tt != want.t {
			t.Fatalf("fixture drew route %d→%d, want %d→%d", s, tt, want.s, want.t)
		}
		res, st, err := e.SPSP(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkSPSP(t, res, s, tt)
		if int64(st.SettledVertices) != want.settled || st.PruneCompares != want.pruned {
			t.Fatalf("route %d→%d: %d settles and %d prune comparisons, want %d and %d",
				s, tt, st.SettledVertices, st.PruneCompares, want.settled, want.pruned)
		}
		before += want.instances
		after += st.SAC.Rounds / mpc.RoundsPerCompare
	}
	t.Logf("instances: %d, %d before the join", after, before)
	if after >= before {
		t.Fatalf("%d instances, not fewer than the %d before the join", after, before)
	}
}
