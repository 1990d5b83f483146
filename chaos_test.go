package fedroad

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// chaosFederation builds a small protocol-mode federation whose sessions can
// be armed to route one party's transport through a FaultConn. Arming after
// New keeps calibration clean; every session forked while armed is faulty.
func chaosFederation(t *testing.T, plan transport.FaultPlan, party int, opts Config) (*Federation, *Graph, []Weights, *atomic.Bool) {
	t.Helper()
	g, w0 := GenerateGridNetwork(5, 5, 51)
	silos := SimulateCongestion(w0, 3, Moderate, 52)
	armed := new(atomic.Bool)
	cfg := opts
	cfg.Mode = ModeProtocol
	cfg.Seed = 53
	cfg.TransportWrap = func(p int, c transport.Conn) transport.Conn {
		if !armed.Load() || p != party {
			return c
		}
		return transport.NewFaultConn(c, plan)
	}
	f, err := New(g, w0, silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, silos, armed
}

// TestNewRejectsInconsistentConfig: New refuses a Config that contradicts
// itself with an error and a nil federation, before it opens a loopback mesh:
// no goroutine of one outlives the call.
func TestNewRejectsInconsistentConfig(t *testing.T) {
	g, w0 := GenerateGridNetwork(3, 3, 54)
	silos := SimulateCongestion(w0, 3, Moderate, 55)
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"MeshTCP in ideal mode", []Config{{Mode: ModeIdeal, MeshTCP: true}}},
		{"MeshTLS without MeshTCP", []Config{{Mode: ModeProtocol, MeshTLS: &TLSConfig{CertFile: "party.pem", KeyFile: "party.key", CAFile: "ca.pem"}}}},
		{"two Configs", []Config{{Mode: ModeProtocol, MeshTCP: true}, {}}},
	} {
		base := runtime.NumGoroutine()
		f, err := New(g, w0, silos, tc.cfgs...)
		if err == nil || f != nil {
			t.Fatalf("%s: New returned (%v, %v), want a nil federation and an error", tc.name, f, err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the refusal, %d before", tc.name, n, base)
		}
	}
}

// jointDijkstra computes the plaintext joint-cost answer the secure query
// must reproduce.
func jointDijkstra(g *Graph, silos []Weights, src, dst Vertex) int64 {
	joint := make(Weights, g.NumArcs())
	for _, s := range silos {
		for a, w := range s {
			joint[a] += w
		}
	}
	cost, _ := graph.DijkstraTo(g, joint, src, dst)
	return cost
}

func TestChaosKilledPartyFailsQueryCleanly(t *testing.T) {
	// The acceptance scenario: one party's endpoint is killed mid-query. The
	// query must surface a wrapped transport error promptly — no hang, no
	// panic — the session must be poisoned, and a fresh session on the same
	// federation must answer correctly.
	const roundTimeout = 150 * time.Millisecond
	plan := transport.FaultPlan{After: 40, Script: []transport.FaultKind{transport.FaultClose}}
	f, g, silos, armed := chaosFederation(t, plan, 1, Config{RoundTimeout: roundTimeout})

	armed.Store(true)
	sess := f.Session()
	start := time.Now()
	_, _, err := sess.ShortestPath(0, 24)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a killed party succeeded")
	}
	if !errors.Is(err, ErrSessionPoisoned) {
		t.Fatalf("error does not wrap ErrSessionPoisoned: %v", err)
	}
	if elapsed > 10*roundTimeout+2*time.Second {
		t.Fatalf("killed-party query took %v, round timeout is %v", elapsed, roundTimeout)
	}
	if !sess.Poisoned() {
		t.Fatal("session not marked poisoned after transport failure")
	}
	// Reusing the poisoned session fails fast instead of touching the
	// desynchronized transport again.
	start = time.Now()
	if _, _, err := sess.ShortestPath(0, 24); !errors.Is(err, ErrSessionPoisoned) {
		t.Fatalf("reused poisoned session: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("poisoned session did not fail fast")
	}
	sess.Close()

	// The federation itself stays healthy: a fresh session answers, and
	// answers correctly.
	armed.Store(false)
	fresh := f.Session()
	defer fresh.Close()
	route, _, err := fresh.ShortestPath(0, 24)
	if err != nil {
		t.Fatalf("fresh session after poisoning: %v", err)
	}
	if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
		t.Fatalf("fresh session cost %d, want %d", JointCost(route), want)
	}
}

func TestChaosSilentPartyTimesOut(t *testing.T) {
	// A party that stops sending (frames silently dropped) must not hang the
	// query: its peers' round timeouts fire and the error classifies as a
	// timeout, which the server layer maps to 504.
	const roundTimeout = 150 * time.Millisecond
	script := make([]transport.FaultKind, 4096)
	for i := range script {
		script[i] = transport.FaultDrop
	}
	plan := transport.FaultPlan{After: 30, Script: script}
	f, _, _, armed := chaosFederation(t, plan, 2, Config{RoundTimeout: roundTimeout})

	armed.Store(true)
	sess := f.Session()
	defer sess.Close()
	start := time.Now()
	_, _, err := sess.ShortestPath(0, 24)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a silent party succeeded")
	}
	if !errors.Is(err, ErrSessionPoisoned) || !IsTimeout(err) {
		t.Fatalf("silent-party error classification: %v", err)
	}
	if elapsed > 10*roundTimeout+2*time.Second {
		t.Fatalf("silent-party query took %v, round timeout is %v", elapsed, roundTimeout)
	}
}

func TestChaosTransientFaultFailsOnlyItsQuery(t *testing.T) {
	// A single injected transport fault inside a query fails that query: its
	// session is poisoned, with the fault in the error chain, and a fresh
	// session answers with the joint-Dijkstra cost.
	plan := transport.FaultPlan{After: 30, Script: []transport.FaultKind{transport.FaultError}}
	f, g, silos, armed := chaosFederation(t, plan, 0, Config{RoundTimeout: 150 * time.Millisecond})

	armed.Store(true)
	sess := f.Session()
	defer sess.Close()
	_, _, err := sess.ShortestPath(0, 24)
	if !errors.Is(err, ErrSessionPoisoned) || !errors.Is(err, transport.ErrTransient) {
		t.Fatalf("faulted query = %v, want ErrSessionPoisoned wrapping the injected fault", err)
	}
	if !sess.Poisoned() {
		t.Fatal("session not poisoned by the fault")
	}

	armed.Store(false)
	fresh := f.Session()
	defer fresh.Close()
	route, _, err := fresh.ShortestPath(0, 24)
	if err != nil {
		t.Fatalf("fresh session after the fault: %v", err)
	}
	if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
		t.Fatalf("fresh session cost %d, want %d", JointCost(route), want)
	}
}

// TestChaosLockstepPoisonedMidGang kills a party at a sweep of points inside
// batched queries, so the engine is poisoned while a lockstep gang has
// threads blocked at every depth (pop replay, tournament build, μ fold,
// commit). Whatever the point: the query returns promptly, with a wrapped
// ErrSessionPoisoned or — if the fault fell after its last frame — the right
// answer, never a wrong route; and no goroutine of the query outlives it.
func TestChaosLockstepPoisonedMidGang(t *testing.T) {
	const roundTimeout = 150 * time.Millisecond
	opt := QueryOptions{BatchedMPC: true}
	poisoned := 0
	for after := 3; after < 400; after += 23 {
		plan := transport.FaultPlan{After: after, Script: []transport.FaultKind{transport.FaultClose}}
		f, g, silos, armed := chaosFederation(t, plan, after%3, Config{RoundTimeout: roundTimeout})
		base := runtime.NumGoroutine()
		armed.Store(true)
		sess := f.Session()
		start := time.Now()
		var err error
		if after%2 == 0 {
			var route Route
			if route, _, err = sess.ShortestPath(0, 24, opt); err == nil {
				if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
					t.Fatalf("after=%d: route costs %d, want %d", after, JointCost(route), want)
				}
			}
		} else {
			var routes []Route
			if routes, _, err = sess.NearestNeighbors(12, 6, opt); err == nil {
				for _, r := range routes {
					if want := jointDijkstra(g, silos, 12, r.Path[len(r.Path)-1]); JointCost(r) != want {
						t.Fatalf("after=%d: neighbor costs %d, want %d", after, JointCost(r), want)
					}
				}
			}
		}
		if err != nil {
			poisoned++
			if !errors.Is(err, ErrSessionPoisoned) || !sess.Poisoned() {
				t.Fatalf("after=%d: untyped failure %v (session poisoned: %v)", after, err, sess.Poisoned())
			}
		}
		if elapsed := time.Since(start); elapsed > 10*roundTimeout+2*time.Second {
			t.Fatalf("after=%d: query took %v, round timeout is %v", after, elapsed, roundTimeout)
		}
		sess.Close()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after=%d: %d goroutines alive after the query, %d before", after, n, base)
		}
	}
	if poisoned < 5 {
		t.Fatalf("only %d of the sweep's faults landed inside a query", poisoned)
	}
}

// sendFault fails party 1's next Send on every engine once armed — the root
// engine's included, since it is consulted per send, not when an engine is
// forked — and disarms itself.
type sendFault struct {
	transport.Conn
	armed *atomic.Bool
}

func (c sendFault) Send(to int, data []byte) error {
	if c.Party() == 1 && c.armed.CompareAndSwap(true, false) {
		return fmt.Errorf("chaos: injected send fault: %w", transport.ErrTransient)
	}
	return c.Conn.Send(to, data)
}

// sendFaultFederation is a protocol-mode federation over a 100-vertex road
// network with a customized index, the history of its weights, and the
// switch that fails the next Fed-SAC round.
func sendFaultFederation(t *testing.T) (*Federation, *scenario.History, *atomic.Bool) {
	t.Helper()
	g, w0 := GenerateRoadNetwork(100, 61)
	silos := SimulateCongestion(w0, 3, Moderate, 62)
	armed := new(atomic.Bool)
	f, err := New(g, w0, silos, Config{
		Mode:         ModeProtocol,
		Seed:         63,
		RoundTimeout: 150 * time.Millisecond,
		TransportWrap: func(_ int, c transport.Conn) transport.Conn {
			return sendFault{Conn: c, armed: armed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	return f, newHistory(f, silos), armed
}

// checkRoutesExact holds every route from s, and a seeded sample of others,
// to plaintext Dijkstra on the weights of the version the route echoes,
// which must be the federation's current one.
func checkRoutesExact(t *testing.T, tag string, f *Federation, h *scenario.History, s Vertex) {
	t.Helper()
	sess := f.Session()
	defer sess.Close()
	g := f.Graph()
	rng := rand.New(rand.NewPCG(uint64(s), 64))
	pairs := [][2]Vertex{{s, 50}, {s, 80}}
	for len(pairs) < 12 {
		pairs = append(pairs, [2]Vertex{Vertex(rng.IntN(g.NumVertices())), Vertex(rng.IntN(g.NumVertices()))})
	}
	for _, p := range pairs {
		route, _, ver, err := sess.ShortestPathAt(p[0], p[1], QueryOptions{BatchedMPC: true})
		if err != nil {
			t.Fatalf("%s: route %d→%d: %v", tag, p[0], p[1], err)
		}
		if ver != f.TrafficVersion() {
			t.Fatalf("%s: route %d→%d echoes version %d, the federation is at %d", tag, p[0], p[1], ver, f.TrafficVersion())
		}
		if err := h.Check(answerOf(ver, p[0], p[1], route)); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

// jamRoute multiplies the arcs of the current route s→t by 40 at every silo.
func jamRoute(t *testing.T, f *Federation, h *scenario.History, s, d Vertex) []TrafficUpdate {
	t.Helper()
	route, _, err := f.ShortestPath(s, d)
	if err != nil || len(route.Path) < 3 {
		t.Fatalf("route %d→%d: %v (%d vertices)", s, d, err, len(route.Path))
	}
	var jam []TrafficUpdate
	for i := 0; i+1 < len(route.Path); i++ {
		a := f.Graph().FindArc(route.Path[i], route.Path[i+1])
		for p := 0; p < f.Silos(); p++ {
			jam = append(jam, TrafficUpdate{Silo: p, Arc: a, TravelMs: min(40*h.Weight(p, a), MaxTravelMs-1)})
		}
	}
	return jam
}

// TestChaosFailedRefreshPublishesNothing: a traffic batch and its index
// refresh are published together or not at all. When the refresh fails — a
// RebuildIndex derivation, or an in-place update — the version, its weights
// and its index keep serving: every route equals Dijkstra at the old version,
// indexed. The caller resends the batch, and the resent batch succeeds.
func TestChaosFailedRefreshPublishesNothing(t *testing.T) {
	f, h, armed := sendFaultFederation(t)
	for _, tc := range []struct {
		name string
		opts []ApplyOption
		s, d Vertex
	}{
		{"RebuildIndex", []ApplyOption{RebuildIndex}, 3, 50},
		{"in-place update", nil, 7, 80},
	} {
		ver, stats := f.TrafficVersion(), f.IndexStats()
		jam := jamRoute(t, f, h, tc.s, tc.d)
		armed.Store(true)
		if _, err := f.ApplyTraffic(jam, tc.opts...); err == nil {
			t.Fatalf("%s through a failed round succeeded", tc.name)
		}
		if f.TrafficVersion() != ver || !f.HasIndex() || f.IndexStats() != stats {
			t.Fatalf("failed %s published: version %d → %d, index %v", tc.name, ver, f.TrafficVersion(), f.HasIndex())
		}
		checkRoutesExact(t, "failed "+tc.name, f, h, tc.s)
		if _, err := f.ApplyTraffic(jam, tc.opts...); err != nil {
			t.Fatalf("%s resent: %v", tc.name, err)
		}
		record(t, h, jam)
		if f.TrafficVersion() != ver+1 || !f.HasIndex() {
			t.Fatalf("%s resent: version %d → %d, index %v", tc.name, ver, f.TrafficVersion(), f.HasIndex())
		}
		checkRoutesExact(t, tc.name+" resent", f, h, tc.s)
	}
}

// TestChaosUpdateFaultKeepsRootEngine: an in-place update runs on an engine
// fork of its own, so a transport fault inside one fails that update only —
// it does not poison the engine every later update and derivation forks.
func TestChaosUpdateFaultKeepsRootEngine(t *testing.T) {
	f, h, armed := sendFaultFederation(t)
	apply := func(ms int64) (ch.UpdateStats, error) {
		ups := []TrafficUpdate{{Silo: 0, Arc: 5, TravelMs: ms}, {Silo: 2, Arc: 9, TravelMs: ms}}
		st, err := f.ApplyTraffic(ups)
		if err == nil {
			record(t, h, ups)
		}
		return st, err
	}
	if _, err := apply(90000); err != nil {
		t.Fatalf("healthy update: %v", err)
	}
	armed.Store(true)
	if _, err := apply(91000); err == nil {
		t.Fatal("an update through a failed round succeeded")
	}
	if _, err := apply(92000); err != nil {
		t.Fatalf("the update after the fault: %v", err)
	}
	if err := f.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	if st, err := apply(93000); err != nil || st.SAC.Compares == 0 {
		t.Fatalf("update after re-customizing: %+v, %v", st, err)
	}
	checkRoutesExact(t, "after the fault", f, h, 3)
}
