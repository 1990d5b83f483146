package fedroad

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pq"
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

// TestKNNBatchedMPCHonored pins the headline bugfix: NearestNeighbors once
// dropped batching on the floor, so its queries ran one protocol instance per
// comparison. Every facade kNN now batches, with or without the retired
// BatchedMPC option: the TM-tree tournament comparisons collapse into one
// instance per level, so it returns the answer of an unbatched engine on the
// same version from the same Fed-SACs, in strictly fewer MPC rounds.
func TestKNNBatchedMPCHonored(t *testing.T) {
	f, joint := testFederation(t, 260, 27)
	sess := f.Session()
	defer sess.Close()
	e, err := core.NewEngine(sess.inner.At(f.cur.Load().fed), core.Options{Queue: pq.KindTMTree})
	if err != nil {
		t.Fatal(err)
	}
	plainRes, plain, err := e.SSSP(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	plainRoutes := make([]Route, len(plainRes))
	for i, r := range plainRes {
		plainRoutes[i] = Route{Path: r.Path, Partials: r.Partial, Found: r.Found}
	}
	full := graph.Dijkstra(f.Graph(), joint, 9)
	for _, opts := range [][]QueryOptions{nil, {{BatchedMPC: true}}} {
		routes, batched, err := f.NearestNeighbors(9, 6, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(routes, plainRoutes) {
			t.Fatalf("opts %v: answers differ:\n unbatched %+v\n facade    %+v", opts, plainRoutes, routes)
		}
		for i, r := range routes {
			if JointCost(r) != full.Dist[r.Path[len(r.Path)-1]] {
				t.Fatalf("opts %v: result %d wrong distance", opts, i)
			}
		}
		if plain.SAC.Compares == 0 || batched.SAC.Compares != plain.SAC.Compares {
			t.Fatalf("opts %v: Fed-SACs: facade %d, unbatched %d; want the same, non-zero", opts, batched.SAC.Compares, plain.SAC.Compares)
		}
		if batched.SAC.Rounds == 0 || batched.SAC.Rounds >= plain.SAC.Rounds {
			t.Fatalf("opts %v: facade kNN did not batch: %d rounds, unbatched %d", opts, batched.SAC.Rounds, plain.SAC.Rounds)
		}
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
