package main

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/ch"
	"repro/internal/serve"
	"repro/internal/transport"
)

// meshServer serves a small protocol-mode federation whose MPC rounds cross
// the loopback TCP mesh, with a result cache of 16 entries and an admission
// limit of maxConcurrent 4 + maxQueue 2.
func meshServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	g, w0 := fedroad.GenerateGridNetwork(5, 5, 61)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 62)
	fed, err := fedroad.New(g, w0, silos, fedroad.Config{Seed: 63, MeshTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	srv := newServer(fed, 4, 2, 16)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, srv
}

// quiet reads /stats, /metrics and /stats again, with want's values before
// and after, until nothing moved in between (the mesh's heartbeats move its
// byte counters several times a second), and returns that instant's reads.
func quiet(t *testing.T, url string, want func() map[string]float64) (st, exposed, wanted map[string]float64) {
	t.Helper()
	for range 100 {
		w1, a := want(), stats(t, url)
		m := scrape(t, url)
		b, w2 := stats(t, url), want()
		if maps.Equal(a, b) && maps.Equal(w1, w2) {
			return a, m, w1
		}
	}
	t.Fatal("no quiescent instant in 100 reads")
	return nil, nil, nil
}

// family sums a series over all its label sets; ok reports that it has one.
func family(m map[string]float64, name string) (sum float64, ok bool) {
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum, ok = sum+v, true
		}
	}
	return sum, ok
}

// link is the label set of the directed mesh link from party to peer.
func link(party, peer int) string { return fmt.Sprintf(`{party="%d",peer="%d"}`, party, peer) }

// linkSeries maps each field of a per-link entry of the old /stats mesh block
// (party and peer are now the labels) to the series that carries it.
var linkSeries = []struct {
	field, series string
	of            func(transport.MeshPeerStats) int64
}{
	{"up", "fedroad_mesh_link_up", func(p transport.MeshPeerStats) int64 { return int64(one(p.Up)) }},
	{"reconnects", "fedroad_mesh_reconnects_total", func(p transport.MeshPeerStats) int64 { return p.Reconnects }},
	{"heartbeat_misses", "fedroad_mesh_heartbeat_misses_total", func(p transport.MeshPeerStats) int64 { return p.HeartbeatMisses }},
	{"dial_failures", "fedroad_mesh_dial_failures_total", func(p transport.MeshPeerStats) int64 { return p.DialFailures }},
	{"bytes_sent", "fedroad_mesh_bytes_sent_total", func(p transport.MeshPeerStats) int64 { return p.BytesSent }},
	{"bytes_recv", "fedroad_mesh_bytes_received_total", func(p transport.MeshPeerStats) int64 { return p.BytesRecv }},
}

// TestStatsIsTheMetricsSnapshot: /stats serves the registry snapshot and
// nothing else. Scraped while traffic writers publish versions, it must not
// race them; at a quiescent instant it carries exactly the series /metrics
// exposes, with the same values (histogram buckets aside), and every field
// the hand-built /stats schema once had is a series reading its owner.
func TestStatsIsTheMetricsSnapshot(t *testing.T) {
	ts, srv := meshServer(t)
	fed := srv.fed
	if err := fed.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	pers, err := newPersister(fed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pers.Restore(); err != nil {
		t.Fatal(err)
	}
	defer pers.Close()
	srv.persist, srv.unitWeights = pers, true

	// Scrape both endpoints while routes run and traffic batches publish
	// in-place updates and a re-customization.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/stats", "/metrics"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err := read(resp, err, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i, body := range []string{`[{"silo":0,"arc":3,"travel_ms":90000}]`, `[{"silo":2,"arc":7,"travel_ms":5}]`} {
		resp, err := http.Get(fmt.Sprintf("%s/route?s=%d&t=24", ts.URL, i))
		if err := read(resp, err, nil); err != nil {
			t.Fatal(err)
		}
		resp, err = http.Post(ts.URL+"/traffic", "application/json", bytes.NewBufferString(body))
		if err := read(resp, err, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fed.ApplyTraffic(nil, fedroad.RebuildIndex); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/route?s=0&t=24", nil) // a hit
	close(done)
	wg.Wait()

	// Each field of the parent's /stats schema, and the series that carries
	// it now; want reads the value from the structure that owns it, or is
	// what the test set up. A mesh sum is its family summed over the links. persist.dir, the one field
	// dropped, echoed the -persist flag, which fedserver logs at start.
	meshTotal := func(of func(transport.MeshStats) int64) func() float64 {
		return func() float64 {
			var sum int64
			for _, ep := range fed.MeshStats() {
				sum += of(ep)
			}
			return float64(sum)
		}
	}
	index := func(of func(st ch.BuildStats) float64) func() float64 {
		return func() float64 { return of(fed.IndexStats()) }
	}
	pipe := func(of func(p serve.Stats) float64) func() float64 {
		return func() float64 { return of(srv.pipe.Stats()) }
	}
	fields := []struct {
		field, series string
		want          func() float64
	}{
		{"vertices", "fedroad_graph_vertices", func() float64 { return float64(fed.Graph().NumVertices()) }},
		{"arcs", "fedroad_graph_arcs", func() float64 { return float64(fed.Graph().NumArcs()) }},
		{"silos", "fedroad_silos", func() float64 { return float64(fed.Silos()) }},
		{"has_index", "fedroad_index_present", func() float64 { return one(fed.HasIndex()) }},
		{"index_building", "fedroad_index_build_in_progress", func() float64 { return one(fed.IndexBuilding()) }},
		{"shortcuts", "fedroad_index_shortcuts", index(func(st ch.BuildStats) float64 { return float64(st.Shortcuts) })},
		{"build_fed_sacs", "fedroad_index_derivation_fed_sacs", index(func(st ch.BuildStats) float64 { return float64(st.SAC.Compares) })},
		{"customize.has_skeleton", "fedroad_index_skeleton_present", func() float64 { return one(fed.HasSkeleton()) }},
		{"customize.index_customized", "fedroad_index_customized", index(func(st ch.BuildStats) float64 { return one(st.Customized) })},
		{"customize.passes", "fedroad_index_customizes_total", func() float64 { return 2 }},
		{"customize.last_wall_ms", "fedroad_index_derivation_seconds", index(func(st ch.BuildStats) float64 { return st.WallTime.Seconds() })},
		{"customize.last_mpc_rounds", "fedroad_index_derivation_mpc_rounds", index(func(st ch.BuildStats) float64 { return float64(st.SAC.Rounds) })},
		{"customize.last_ticks", "fedroad_index_derivation_ticks", index(func(st ch.BuildStats) float64 { return float64(st.Rounds) })},
		{"traffic_version", "fedroad_traffic_version", func() float64 { return float64(fed.TrafficVersion()) }},
		{"unit_weights", "fedserver_unit_weights", func() float64 { return 1 }},
		{"queries_served", "fedserver_admitted_total", pipe(func(p serve.Stats) float64 { return float64(p.Admission.Admitted) })},
		{"max_concurrent", "fedserver_max_concurrent", pipe(func(p serve.Stats) float64 { return float64(p.MaxConcurrent) })},
		{"admission.limit", "fedserver_admission_limit", func() float64 { return 4 + 2 }},
		{"admission.queue_depth", "fedserver_queue_depth", pipe(func(p serve.Stats) float64 { return float64(p.Admission.Depth) })},
		{"admission.admitted", "fedserver_admitted_total", pipe(func(p serve.Stats) float64 { return float64(p.Admission.Admitted) })},
		{"admission.shed", "fedserver_shed_total", pipe(func(p serve.Stats) float64 { return float64(p.Admission.Shed) })},
		{"cache.hits", "fedroad_cache_hits_total", pipe(func(p serve.Stats) float64 { return float64(p.Cache.Hits) })},
		{"cache.misses", "fedroad_cache_misses_total", pipe(func(p serve.Stats) float64 { return float64(p.Cache.Misses) })},
		{"cache.coalesced", "fedroad_cache_coalesced_total", pipe(func(p serve.Stats) float64 { return float64(p.Cache.Coalesced) })},
		{"cache.evicted_capacity", "fedroad_cache_evicted_total", pipe(func(p serve.Stats) float64 { return float64(p.Cache.EvictedCapacity) })},
		{"cache.evicted_stale", "fedroad_cache_evicted_stale_total", pipe(func(p serve.Stats) float64 { return float64(p.Cache.EvictedStale) })},
		{"cache.entries", "fedroad_cache_entries", pipe(func(p serve.Stats) float64 { return float64(p.Cache.Entries) })},
		{"persist.restored_index", "fedserver_persist_restored_index", func() float64 { return one(pers.restoredIndex) }},
		{"persist.restore_ms", "fedserver_persist_restore_seconds", func() float64 { return pers.restoreTime.Seconds() }},
		{"persist.replayed_deltas", "fedserver_persist_replayed_deltas", func() float64 { return float64(pers.replayedDeltas) }},
		{"persist.wal_appends", "fedserver_persist_wal_appends_total", func() float64 { return float64(pers.walAppends.Load()) }},
		{"mesh.links_up", "fedroad_mesh_link_up", meshTotal(func(ep transport.MeshStats) int64 { return int64(ep.LinksUp) })},
		{"mesh.reconnects", "fedroad_mesh_reconnects_total", meshTotal(func(ep transport.MeshStats) int64 { return ep.Reconnects })},
		{"mesh.heartbeat_misses", "fedroad_mesh_heartbeat_misses_total", meshTotal(func(ep transport.MeshStats) int64 { return ep.HeartbeatMisses })},
		{"mesh.bytes_sent", "fedroad_mesh_bytes_sent_total", meshTotal(func(ep transport.MeshStats) int64 { return ep.BytesSent })},
		{"mesh.messages_sent", "fedroad_mesh_messages_sent_total", meshTotal(func(ep transport.MeshStats) int64 { return ep.MsgsSent })},
	}
	if len(fields) != 37-1 {
		t.Fatalf("the table maps %d fields, want the parent's 37 scalar fields but persist.dir", len(fields))
	}
	want := func() map[string]float64 {
		w := make(map[string]float64)
		for _, f := range fields {
			w[f.field] = f.want()
		}
		for _, ep := range fed.MeshStats() {
			for _, p := range ep.Peers {
				for _, ls := range linkSeries {
					w[ls.series+link(ep.Party, p.Peer)] = float64(ls.of(p))
				}
			}
		}
		return w
	}
	st, exposed, wanted := quiet(t, ts.URL, want)

	// The same series with the same values on both endpoints.
	buckets := 0
	for k, v := range exposed {
		if strings.Contains(k, "_bucket{") {
			buckets++
			continue
		}
		if got, ok := st[k]; !ok || got != v {
			t.Errorf("/metrics has %s = %v, /stats %v (present: %v)", k, v, got, ok)
		}
	}
	if len(st) != len(exposed)-buckets {
		t.Errorf("/stats has %d series, /metrics %d besides histogram buckets", len(st), len(exposed)-buckets)
	}

	for _, f := range fields {
		got, ok := family(st, f.series)
		if !ok || got != wanted[f.field] {
			t.Errorf("%s: %s reads %v (present: %v), its owner %v", f.field, f.series, got, ok, wanted[f.field])
		}
	}
	for p := range fed.Silos() {
		for q := range fed.Silos() {
			if p == q {
				continue
			}
			for _, ls := range linkSeries {
				k := ls.series + link(p, q)
				w, wok := wanted[k]
				if got, ok := st[k]; !ok || !wok || got != w {
					t.Errorf("link (%d,%d) %s: %s reads %v (present: %v), the link %v", p, q, ls.field, k, got, ok, w)
				}
			}
		}
	}
	if st["fedroad_index_customized"] != 1 || st["fedroad_traffic_version"] != 2 || st["fedserver_persist_wal_appends_total"] != 2 {
		t.Errorf("customized %v, traffic version %v, WAL appends %v: want 1, 2 and 2",
			st["fedroad_index_customized"], st["fedroad_traffic_version"], st["fedserver_persist_wal_appends_total"])
	}
}

// TestMeshSeriesFollowABrokenLink: after a link breaks and the mesh redials
// it, the per-link series show the reconnect on both of its ends, every link
// is up again, and each family summed over its links equals the totals
// MeshStats reports. The admission gate saw exactly the cache's misses: only
// flight leaders reach it.
func TestMeshSeriesFollowABrokenLink(t *testing.T) {
	ts, srv := meshServer(t)
	fed := srv.fed
	fed.BreakMeshLink(0, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := stats(t, ts.URL)
		up, _ := family(st, "fedroad_mesh_link_up")
		if up == 6 && st["fedroad_mesh_reconnects_total"+link(0, 1)] >= 1 && st["fedroad_mesh_reconnects_total"+link(1, 0)] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("link (0,1) not redialed within 10s: %d links up, reconnects %v and %v", int(up),
				st["fedroad_mesh_reconnects_total"+link(0, 1)], st["fedroad_mesh_reconnects_total"+link(1, 0)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	var route routeResponse
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", &route); r.StatusCode != http.StatusOK || !route.Found {
		t.Fatalf("route over the redialed mesh: status %d, found %v", r.StatusCode, route.Found)
	}

	totals := []struct {
		series string
		of     func(transport.MeshStats) int64
	}{
		{"fedroad_mesh_link_up", func(ep transport.MeshStats) int64 { return int64(ep.LinksUp) }},
		{"fedroad_mesh_reconnects_total", func(ep transport.MeshStats) int64 { return ep.Reconnects }},
		{"fedroad_mesh_heartbeat_misses_total", func(ep transport.MeshStats) int64 { return ep.HeartbeatMisses }},
		{"fedroad_mesh_bytes_sent_total", func(ep transport.MeshStats) int64 { return ep.BytesSent }},
		{"fedroad_mesh_messages_sent_total", func(ep transport.MeshStats) int64 { return ep.MsgsSent }},
	}
	// MeshStats has no totals of dial failures and received bytes: those two
	// families are summed from its per-peer entries.
	peerTotals := []struct {
		series string
		of     func(transport.MeshPeerStats) int64
	}{
		{"fedroad_mesh_dial_failures_total", func(p transport.MeshPeerStats) int64 { return p.DialFailures }},
		{"fedroad_mesh_bytes_received_total", func(p transport.MeshPeerStats) int64 { return p.BytesRecv }},
	}
	want := func() map[string]float64 {
		w := make(map[string]float64)
		for _, ep := range fed.MeshStats() {
			for _, tot := range totals {
				w[tot.series] += float64(tot.of(ep))
			}
			for _, p := range ep.Peers {
				for _, tot := range peerTotals {
					w[tot.series] += float64(tot.of(p))
				}
			}
		}
		return w
	}
	st, _, wanted := quiet(t, ts.URL, want)
	for p := range fed.Silos() {
		for q := range fed.Silos() {
			if p != q && st["fedroad_mesh_link_up"+link(p, q)] != 1 {
				t.Errorf("link (%d,%d) reads up = %v after the redial", p, q, st["fedroad_mesh_link_up"+link(p, q)])
			}
		}
	}
	for series, w := range wanted {
		if got, _ := family(st, series); got != w {
			t.Errorf("%s sums to %v over its links, MeshStats to %v", series, got, w)
		}
	}
	if bytes := wanted["fedroad_mesh_bytes_sent_total"]; bytes == 0 || wanted["fedroad_mesh_bytes_received_total"] == 0 {
		t.Errorf("the mesh carried a route in %v bytes sent, %v received", bytes, wanted["fedroad_mesh_bytes_received_total"])
	}
	if a, s, m := st["fedserver_admitted_total"], st["fedserver_shed_total"], st["fedroad_cache_misses_total"]; a+s != m || m == 0 {
		t.Errorf("admitted %v + shed %v != cache misses %v", a, s, m)
	}
}
