package serve_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/transport"
)

// faults are the switches a test flips on the federation's transport: kill
// closes party 1's endpoint mid-round (a crashed silo), mute swallows its
// sends (a silent silo, detectable only by round timeout), and hold — while
// the test keeps it write-locked — parks every party at its next send, so
// queries stay in flight, and in the gate, without any round timing out.
type faults struct {
	kill, mute atomic.Bool
	hold       sync.RWMutex
}

type faultConn struct {
	transport.Conn
	f *faults
}

func (c faultConn) Send(to int, data []byte) error {
	c.f.hold.RLock()
	c.f.hold.RUnlock()
	if c.Party() != 1 {
		return c.Conn.Send(to, data)
	}
	if c.f.kill.Load() {
		c.Conn.Close()
		return fmt.Errorf("chaos: killed during send: %w", transport.ErrClosed)
	}
	if c.f.mute.Load() {
		return nil
	}
	return c.Conn.Send(to, data)
}

func (c faultConn) Recv(from int) ([]byte, error) {
	if c.Party() == 1 && c.f.kill.Load() {
		c.Conn.Close()
		return nil, fmt.Errorf("chaos: killed during recv: %w", transport.ErrClosed)
	}
	return c.Conn.Recv(from)
}

const roundTimeout = 150 * time.Millisecond

// faultyFederation is a 5×5-grid protocol-mode federation whose endpoints
// all run through faultConns.
func faultyFederation(t *testing.T) (*fedroad.Federation, *faults) {
	t.Helper()
	f := new(faults)
	g, w0 := fedroad.GenerateGridNetwork(5, 5, 61)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 62)
	fed, err := fedroad.New(g, w0, silos, fedroad.Config{
		Seed:         63,
		Mode:         fedroad.ModeProtocol,
		RoundTimeout: roundTimeout,
		TransportWrap: func(p int, c transport.Conn) transport.Conn {
			return faultConn{Conn: c, f: f}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	return fed, f
}

func forks(fed *fedroad.Federation) float64 {
	return fed.Metrics().Snapshot()["fedroad_mpc_engine_forks_total"]
}

// waitFor polls cond (a counter the pipeline moves) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A hit and a coalesced waiter stop at the cache: N identical concurrent
// requests and one later repeat cost one admission slot, one session (one
// engine fork) and one query between them.
func TestHitAndCoalescedWaiterTakeNoSlotAndNoSession(t *testing.T) {
	fed, f := faultyFederation(t)
	p := serve.New(fed, 4, 0, 64)
	forks0 := forks(fed)

	const n = 6
	type answer struct {
		route fedroad.Route
		meta  serve.Meta
		err   error
	}
	answers := make(chan answer, n)
	f.hold.Lock() // the leader parks mid-protocol; the others find its flight
	for i := 0; i < n; i++ {
		go func() {
			r, m, err := p.Route(0, 24)
			answers <- answer{r, m, err}
		}()
	}
	waitFor(t, "n-1 coalesced waiters", func() bool { return p.Stats().Cache.Coalesced == n-1 })
	if st := p.Stats(); st.Admission.Depth != 1 || st.Admission.Admitted != 1 {
		t.Fatalf("with %d identical requests in flight: %+v, want one admitted and in the system", n, st.Admission)
	}
	f.hold.Unlock()

	var first answer
	outcomes := map[fedroad.CacheOutcome]int{}
	for i := 0; i < n; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if i == 0 {
			first = a
		}
		if fedroad.JointCost(a.route) != fedroad.JointCost(first.route) || a.meta.Version != first.meta.Version ||
			a.meta.Stats.SAC != first.meta.Stats.SAC {
			t.Fatalf("waiters disagree: %+v vs %+v", a, first)
		}
		outcomes[a.meta.Outcome]++
	}
	if outcomes[fedroad.CacheMiss] != 1 || outcomes[fedroad.CacheCoalesced] != n-1 {
		t.Fatalf("outcomes %v, want 1 miss and %d coalesced", outcomes, n-1)
	}

	_, m, err := p.Route(0, 24)
	if err != nil || m.Outcome != fedroad.CacheHit {
		t.Fatalf("repeat: outcome %v, err %v, want a hit", m.Outcome, err)
	}
	st := p.Stats()
	if st.Admission.Admitted != 1 || st.Admission.Shed != 0 || st.Admission.Depth != 0 {
		t.Fatalf("after %d requests for one key: %+v, want one query admitted", n+1, st)
	}
	if got := forks(fed) - forks0; got != 1 {
		t.Fatalf("fedroad_mpc_engine_forks_total moved by %v, want 1 (one session for the leader)", got)
	}
}

// A shed leader returns ErrShed without blocking, caches nothing, and the
// gate's Admitted + Shed counts exactly the leader attempts.
func TestShedLeaderReturnsErrShedAndCachesNothing(t *testing.T) {
	fed, f := faultyFederation(t)
	p := serve.New(fed, 1, 1, 64) // in-system limit: 1 running + 1 queued

	f.hold.Lock()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := p.Route(fedroad.Vertex(i), 24)
			done <- err
		}()
	}
	waitFor(t, "a full gate", func() bool { return p.Stats().Admission.Depth == 2 })

	_, m, err := p.Route(5, 20)
	if !errors.Is(err, serve.ErrShed) {
		t.Fatalf("third leader at limit 2: err %v, want ErrShed", err)
	}
	if m.Outcome != fedroad.CacheMiss {
		t.Fatalf("shed leader outcome %v, want miss", m.Outcome)
	}
	f.hold.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// The shed request left no entry behind: asked again it runs, as a miss.
	if _, m, err = p.Route(5, 20); err != nil || m.Outcome != fedroad.CacheMiss {
		t.Fatalf("retry after shed: outcome %v, err %v, want a computed miss", m.Outcome, err)
	}
	st := p.Stats()
	if st.Admission.Admitted != 3 || st.Admission.Shed != 1 || st.Admission.Depth != 0 {
		t.Fatalf("4 leader attempts: %+v, want 3 admitted + 1 shed, depth 0", st)
	}
	if st.Cache.Misses != 4 || st.Cache.Entries != 3 {
		t.Fatalf("cache after 4 leaders, one shed: %+v, want 4 misses and 3 entries", *st.Cache)
	}
	if sec := p.RetryAfterSec(); sec < 1 || sec > 30 {
		t.Fatalf("RetryAfterSec = %d, want within [1,30]", sec)
	}
}

// A request that meets a dead or silent silo fails with a typed error within
// the round timeout and takes its session with it; the next request after
// the silo returns opens a fresh session and succeeds.
func TestDeadSiloFailsTheRequestAndTheNextOneRecovers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*faults) *atomic.Bool
		typed func(error) bool
	}{
		{"killed", func(f *faults) *atomic.Bool { return &f.kill },
			func(err error) bool { return errors.Is(err, fedroad.ErrSessionPoisoned) }},
		{"silent", func(f *faults) *atomic.Bool { return &f.mute }, fedroad.IsTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed, f := faultyFederation(t)
			p := serve.New(fed, 4, 0, 0)
			if _, _, err := p.Route(0, 24); err != nil {
				t.Fatalf("healthy request: %v", err)
			}

			tc.fault(f).Store(true)
			snap := fed.Metrics().Snapshot()
			start := time.Now()
			_, _, err := p.Route(0, 24)
			if !tc.typed(err) {
				t.Fatalf("request on a %s silo: %v, want the typed error", tc.name, err)
			}
			// One timed-out frame fails the round; the bound leaves room for
			// the peers' own timeouts and a loaded CI host.
			if d := time.Since(start); d > 20*roundTimeout {
				t.Fatalf("request on a %s silo took %v, round timeout is %v", tc.name, d, roundTimeout)
			}
			after := fed.Metrics().Snapshot()
			if got := after["fedroad_mpc_poisonings_total"] - snap["fedroad_mpc_poisonings_total"]; got != 1 {
				t.Fatalf("fedroad_mpc_poisonings_total moved by %v, want the request's one session", got)
			}

			tc.fault(f).Store(false)
			if r, _, err := p.Route(0, 24); err != nil || !r.Found {
				t.Fatalf("request after the silo returned: %+v, %v", r, err)
			}
			if got := forks(fed) - after["fedroad_mpc_engine_forks_total"]; got != 1 {
				t.Fatalf("recovery opened %v sessions, want a fresh one", got)
			}
			if st := p.Stats(); st.Admission.Admitted != 3 || st.Admission.Depth != 0 {
				t.Fatalf("after 3 requests: %+v", st)
			}
		})
	}
}

// A session per request leaks nothing: after 1,000 sequential requests over
// the TCP mesh every lane is closed, no goroutine is left behind, and exactly
// 1,000 sessions were opened.
func TestThousandRequestsOverMeshLeaveNothingOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000 protocol-mode queries over loopback TCP")
	}
	g, w0 := fedroad.GenerateGridNetwork(3, 3, 61)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 62)
	fed, err := fedroad.New(g, w0, silos, fedroad.Config{Seed: 63, Mode: fedroad.ModeProtocol, MeshTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	p := serve.New(fed, 4, 0, 0)
	if _, _, err := p.Route(0, 8); err != nil { // settle the mesh's own goroutines
		t.Fatal(err)
	}
	goroutines, forks0 := runtime.NumGoroutine(), forks(fed)

	const n = 1000
	for i := 0; i < n; i++ {
		if _, _, err := p.Route(fedroad.Vertex(i%9), fedroad.Vertex((i+4)%9)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	for _, ep := range fed.MeshStats() {
		for _, peer := range ep.Peers {
			if !peer.Up || peer.OpenLanes != 0 {
				t.Errorf("link %d→%d: up %v, %d lanes open, want an idle live link", ep.Party, peer.Peer, peer.Up, peer.OpenLanes)
			}
		}
	}
	if got := forks(fed) - forks0; got != n {
		t.Errorf("%v sessions opened for %d requests", got, n)
	}
	if st := p.Stats(); st.Admission.Admitted != n+1 || st.Admission.Depth != 0 {
		t.Errorf("pipeline after %d requests: %+v", n+1, st)
	}
	// Party goroutines of the last request may still be unwinding.
	waitFor(t, "request goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// answerOf is a route the pipeline served for src→dst, as the checker reads
// it.
func answerOf(src, dst fedroad.Vertex, r fedroad.Route, m serve.Meta) scenario.Answer {
	return scenario.Answer{Version: m.Version, Src: src, Dst: dst, Found: r.Found, Path: r.Path, Partials: r.Partials}
}

// applyTraffic is a writer op: ups applied as one ApplyTraffic batch.
func applyTraffic(fed *fedroad.Federation, ups []scenario.Update) ([]scenario.Update, error) {
	batch := make([]fedroad.TrafficUpdate, len(ups))
	for i, u := range ups {
		batch[i] = fedroad.TrafficUpdate(u)
	}
	_, err := fed.ApplyTraffic(batch)
	return ups, err
}

// The version a served answer echoes is the version it was computed at, for
// hits, waiters and leaders alike, while traffic moves underneath: every
// answer is exact at its echoed version.
func TestEchoedVersionIsComputedAtVersionAcrossApplyTraffic(t *testing.T) {
	g, w0 := fedroad.GenerateRoadNetwork(120, 7)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 8)
	fed, err := fedroad.New(g, w0, silos, fedroad.Config{Mode: fedroad.ModeIdeal, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	p := serve.New(fed, 4, 0, 256)

	var misses, hits atomic.Int64
	rng := rand.New(rand.NewPCG(11, 0))
	if _, err := scenario.Run(scenario.NewHistory(g, silos, fed.TrafficVersion), scenario.Row{
		Fronts: 4,
		Front: func(w int) scenario.Front {
			rng := rand.New(rand.NewPCG(10, uint64(w)))
			return func(int) (scenario.Answer, error) {
				// Four pairs, so that most answers of an epoch are cached ones.
				src, dst := fedroad.Vertex(rng.IntN(2)), fedroad.Vertex(100+rng.IntN(2))
				r, m, err := p.Route(src, dst)
				switch m.Outcome {
				case fedroad.CacheMiss:
					misses.Add(1)
				case fedroad.CacheHit:
					hits.Add(1)
				}
				return answerOf(src, dst, r, m), err
			}
		},
		Writer: func(int) ([]scenario.Update, error) {
			return applyTraffic(fed, scenario.Batch(rng, 1, 3, g.NumArcs(), 1, 120001))
		},
		// An epoch lasts a dozen answers, however slow the host.
		Ops: 40, Epoch: 12,
	}); err != nil {
		t.Fatal(err)
	}
	if misses.Load() == 0 || hits.Load() == 0 {
		t.Fatalf("%d misses, %d hits: the run must see both computed and cached answers", misses.Load(), hits.Load())
	}
}

// TestPipelineSoak races the serving pipeline — the code fedserver's
// handlers call — against traffic updates and index rebuilds, the contention
// a deployment sees, compressed into a fraction of a second. A small OD pool
// makes cache pressure real and an in-system limit below the worker count
// makes overload real: a shed request retries after a beat, as a client
// honouring Retry-After does. Every answer is exact at its echoed version,
// and the admission accounting is exact with cached answers not admitted.
//
// The overload is certain, not left to timing: each front's first request
// is a distinct uncached pair, and until the gate has shed one, every engine
// fork waits in the transport hook (which a session's engine calls when it
// forks, in ideal mode too). Four of the six leaders fill the limit-4 gate
// and stay in it, so a fifth is shed.
func TestPipelineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak takes a second of wall time")
	}
	const workers = 6
	g, w0 := fedroad.GenerateRoadNetwork(150, 1)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 2)
	var holding atomic.Bool
	released := make(chan struct{})
	fed, err := fedroad.New(g, w0, silos, fedroad.Config{
		Mode: fedroad.ModeIdeal,
		Seed: 3,
		TransportWrap: func(party int, c transport.Conn) transport.Conn {
			if party == 0 && holding.Load() {
				<-released
			}
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	p := serve.New(fed, workers/2, 1, 1024)
	pairs := make([][2]fedroad.Vertex, 12)
	prng := rand.New(rand.NewPCG(4, 0))
	for i := range pairs {
		pairs[i] = [2]fedroad.Vertex{fedroad.Vertex(prng.IntN(g.NumVertices())), fedroad.Vertex(prng.IntN(g.NumVertices()))}
	}

	var leaders atomic.Int64 // only flight leaders reach the gate
	rng := rand.New(rand.NewPCG(6, 0))
	holding.Store(true)
	go func() {
		defer close(released)
		defer holding.Store(false)
		for deadline := time.Now().Add(10 * time.Second); p.Stats().Admission.Shed == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()
	c, err := scenario.Run(scenario.NewHistory(g, silos, fed.TrafficVersion), scenario.Row{
		Fronts: workers,
		Front: func(w int) scenario.Front {
			rng := rand.New(rand.NewPCG(5, uint64(w)))
			return func(i int) (scenario.Answer, error) {
				pr := [2]fedroad.Vertex{fedroad.Vertex(w), fedroad.Vertex(g.NumVertices() - 1 - w)}
				if i > 0 {
					pr = pairs[rng.IntN(len(pairs))]
				}
				r, m, err := p.Route(pr[0], pr[1])
				if m.Outcome == fedroad.CacheMiss {
					leaders.Add(1)
				}
				return answerOf(pr[0], pr[1], r, m), err
			}
		},
		Retry: func(err error) bool { return errors.Is(err, serve.ErrShed) },
		Writer: func(int) ([]scenario.Update, error) {
			defer time.Sleep(5 * time.Millisecond)
			return applyTraffic(fed, scenario.Batch(rng, 1+rng.IntN(3), 3, g.NumArcs(), 1, 120001))
		},
		// Full index rebuilds: the writer waits for each one, and queries
		// keep answering at the published version.
		Derivers: []func(int) error{func(int) error {
			defer time.Sleep(20 * time.Millisecond)
			return fed.BuildIndex()
		}},
		For: 600 * time.Millisecond,
	})
	<-released
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	t.Logf("%+v, %d leader attempts, %+v, %+v", c, leaders.Load(), st.Admission, *st.Cache)
	if st.Admission.Admitted+st.Admission.Shed != leaders.Load() || st.Admission.Depth != 0 {
		t.Fatalf("admitted %d + shed %d != %d leader attempts, or the gate did not drain", st.Admission.Admitted, st.Admission.Shed, leaders.Load())
	}
	if st.Admission.Admitted >= int64(c.Answers) {
		t.Fatalf("admitted %d of %d answers (%d hits, %d coalesced): cached answers must not take admission slots",
			st.Admission.Admitted, c.Answers, st.Cache.Hits, st.Cache.Coalesced)
	}
	if st.Admission.Shed == 0 {
		t.Fatal("nothing was shed: the overload path went unexercised")
	}
	if int64(st.Cache.Misses) != leaders.Load() {
		t.Fatalf("cache counted %d misses, the workers %d leader attempts", st.Cache.Misses, leaders.Load())
	}
}
