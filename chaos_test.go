package fedroad

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
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

func TestChaosRetryAbsorbsTransientFault(t *testing.T) {
	// A single transient transport fault inside a query is absorbed by the
	// configured Fed-SAC retry budget: the query succeeds with the correct
	// joint cost and the session stays healthy.
	plan := transport.FaultPlan{After: 30, Script: []transport.FaultKind{transport.FaultError}}
	f, g, silos, armed := chaosFederation(t, plan, 0, Config{
		RoundTimeout:    150 * time.Millisecond,
		SACRetries:      2,
		SACRetryBackoff: time.Millisecond,
	})

	armed.Store(true)
	sess := f.Session()
	defer sess.Close()
	route, _, err := sess.ShortestPath(0, 24)
	if err != nil {
		t.Fatalf("retry did not absorb the transient fault: %v", err)
	}
	if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
		t.Fatalf("faulty-but-retried query cost %d, want %d", JointCost(route), want)
	}
	if sess.Poisoned() {
		t.Fatal("session poisoned by a recovered fault")
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
