package fedroad

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestMetricsRegistry: the federation exposes one registry; queries move its
// counters; the exposition renders.
func TestMetricsRegistry(t *testing.T) {
	f, _ := testFederation(t, 250, 21)
	reg := f.Metrics()
	if reg == nil {
		t.Fatal("Metrics() returned nil")
	}
	snap := func() map[string]float64 { return reg.Snapshot() }

	before := snap()
	if _, ok := before[`fedroad_queries_total{kind="spsp"}`]; !ok {
		t.Fatal("spsp query counter not registered at construction")
	}
	if before["fedroad_graph_vertices"] != 250 {
		t.Fatalf("fedroad_graph_vertices = %v, want 250", before["fedroad_graph_vertices"])
	}

	if _, _, err := f.ShortestPath(2, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.NearestNeighbors(5, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ShortestPath(2, 250); err == nil {
		t.Fatal("out-of-range target accepted")
	}

	after := snap()
	for _, k := range []string{
		`fedroad_queries_total{kind="spsp"}`,
		`fedroad_queries_total{kind="sssp"}`,
		`fedroad_query_errors_total{kind="spsp"}`,
		"fedroad_mpc_compares_total",
		"fedroad_mpc_rounds_total",
		"fedroad_mpc_bytes_total",
		`fedroad_query_settled_vertices_total{kind="sssp"}`,
		`fedroad_query_phase_seconds_total{kind="spsp",phase="queue"}`,
	} {
		if after[k] <= before[k] {
			t.Errorf("%s did not increase: %v -> %v", k, before[k], after[k])
		}
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, frag := range []string{
		"# TYPE fedroad_queries_total counter",
		"# TYPE fedroad_query_seconds histogram",
		`fedroad_query_seconds_bucket{kind="spsp",le="+Inf"}`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exposition missing %q", frag)
		}
	}
}

// TestQueryValidationErrors pins the error taxonomy: every request-level
// mistake wraps ErrInvalidQuery so servers can map it to a 4xx, and none of
// them is silently tolerated.
func TestQueryValidationErrors(t *testing.T) {
	f, _ := testFederation(t, 100, 23)
	cases := []struct {
		name string
		run  func() error
	}{
		{"src out of range", func() error { _, _, err := f.ShortestPath(-1, 50); return err }},
		{"dst out of range", func() error { _, _, err := f.ShortestPath(0, 100); return err }},
		{"knn k<1", func() error { _, _, err := f.NearestNeighbors(0, 0); return err }},
		{"knn src out of range", func() error { _, _, err := f.NearestNeighbors(100, 3); return err }},
		{"two option structs", func() error {
			_, _, err := f.ShortestPath(0, 50, QueryOptions{}, QueryOptions{})
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: error %v does not wrap ErrInvalidQuery", c.name, err)
		}
	}
}

// TestKNNBatchedMPCHonored pins the headline bugfix: NearestNeighbors used to
// drop opt.BatchedMPC on the floor, so batched and unbatched queries were
// byte-identical. Honored, batching collapses the TM-tree tournament
// comparisons into one protocol instance per level: same answers, strictly
// fewer MPC rounds.
func TestKNNBatchedMPCHonored(t *testing.T) {
	f, joint := testFederation(t, 260, 27)
	plainRoutes, plain, err := f.NearestNeighbors(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	batchedRoutes, batched, err := f.NearestNeighbors(9, 6, QueryOptions{BatchedMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plainRoutes) != len(batchedRoutes) {
		t.Fatalf("route counts diverge: %d vs %d", len(plainRoutes), len(batchedRoutes))
	}
	full := graph.Dijkstra(f.Graph(), joint, 9)
	for i := range batchedRoutes {
		tgt := batchedRoutes[i].Path[len(batchedRoutes[i].Path)-1]
		if JointCost(batchedRoutes[i]) != full.Dist[tgt] {
			t.Fatalf("batched result %d wrong distance", i)
		}
	}
	if plain.SAC.Rounds == 0 || batched.SAC.Rounds == 0 {
		t.Fatalf("rounds unaccounted: plain %d, batched %d", plain.SAC.Rounds, batched.SAC.Rounds)
	}
	if batched.SAC.Rounds >= plain.SAC.Rounds {
		t.Fatalf("BatchedMPC did not reduce rounds: batched %d >= plain %d (option dropped?)",
			batched.SAC.Rounds, plain.SAC.Rounds)
	}
}

// TestPhaseTimingsPopulated: the per-phase trace is filled in for both query
// kinds.
func TestPhaseTimingsPopulated(t *testing.T) {
	f, _ := testFederation(t, 250, 29)
	_, spsp, err := f.ShortestPath(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if spsp.Phases.Queue <= 0 || spsp.Phases.SACWait <= 0 || spsp.Phases.Relax <= 0 {
		t.Fatalf("SPSP phases not populated: %+v", spsp.Phases)
	}
	_, sssp, err := f.NearestNeighbors(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sssp.Phases.Queue <= 0 || sssp.Phases.SACWait <= 0 {
		t.Fatalf("SSSP phases not populated: %+v", sssp.Phases)
	}
	if spsp.HeuristicEvals == 0 {
		t.Fatal("SPSP heuristic evaluations not counted")
	}
}
