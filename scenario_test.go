package fedroad

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// newHistory starts the oracle's history at f's current version, whose silo
// weights are silos.
func newHistory(f *Federation, silos []Weights) *scenario.History {
	return scenario.NewHistory(f.Graph(), silos, f.TrafficVersion)
}

// record folds a batch f accepted into h.
func record(t *testing.T, h *scenario.History, batch []TrafficUpdate) {
	t.Helper()
	ups := make([]scenario.Update, len(batch))
	for i, u := range batch {
		ups[i] = scenario.Update(u)
	}
	if err := h.Apply(ups); err != nil {
		t.Fatal(err)
	}
}

// applyTraffic is a writer op: ups applied as one ApplyTraffic batch.
func applyTraffic(f *Federation, ups []scenario.Update, opts ...ApplyOption) ([]scenario.Update, error) {
	batch := make([]TrafficUpdate, len(ups))
	for i, u := range ups {
		batch[i] = TrafficUpdate(u)
	}
	_, err := f.ApplyTraffic(batch, opts...)
	return ups, err
}

// answerOf is route r of s→d, computed at version ver, as the checker reads
// it.
func answerOf(ver uint64, s, d Vertex, r Route) scenario.Answer {
	return scenario.Answer{Version: ver, Src: s, Dst: d, Found: r.Found, Path: r.Path, Partials: r.Partials}
}

// race runs a row and fails the test on any violation.
func race(t *testing.T, h *scenario.History, row scenario.Row) scenario.Counts {
	t.Helper()
	c, err := scenario.Run(h, row)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", c)
	return c
}

// pairs yields the i-th s→d pair a front asks.
type pairs func(i int) (Vertex, Vertex)

// sessionFront makes a row's front w: a Session of f asking the pairs
// pairsOf(w) yields, with facadeConfigs in turn.
func sessionFront(t *testing.T, f *Federation, pairsOf func(w int) pairs) func(int) scenario.Front {
	return func(w int) scenario.Front {
		s := f.Session()
		t.Cleanup(s.Close)
		next := pairsOf(w)
		return func(i int) (scenario.Answer, error) {
			src, dst := next(i)
			r, _, ver, err := s.ShortestPathAt(src, dst, facadeConfigs[(w+i)%len(facadeConfigs)])
			return answerOf(ver, src, dst, r), err
		}
	}
}

// randomPairs draws front w's pairs from a PCG seeded (w, seed).
func randomPairs(f *Federation, seed uint64) func(w int) pairs {
	n := f.Graph().NumVertices()
	return func(w int) pairs {
		rng := rand.New(rand.NewPCG(uint64(w), seed))
		return func(int) (Vertex, Vertex) { return Vertex(rng.IntN(n)), Vertex(rng.IntN(n)) }
	}
}

// parker is a TransportWrap that parks every engine forked while it is
// armed: the endpoints' Sends wait until release is closed. A derivation
// forks one engine as it starts, so arming the parker just before it holds
// that derivation mid-protocol, and sessions forked after disarming run
// freely. Use with ModeProtocol and no RoundTimeout.
type parker struct {
	armed   atomic.Bool
	parked  chan struct{} // closed when a parked endpoint first sends
	release chan struct{}
	once    sync.Once
}

func newParker() *parker {
	return &parker{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parker) wrap(_ int, c transport.Conn) transport.Conn {
	if !p.armed.Load() {
		return c
	}
	return parkedConn{Conn: c, p: p}
}

// park arms the parker, runs start, waits until the engine start forked is
// parked and disarms.
func (p *parker) park(t *testing.T, start func()) {
	t.Helper()
	p.armed.Store(true)
	start()
	select {
	case <-p.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the derivation never reached a protocol round")
	}
	p.armed.Store(false)
}

type parkedConn struct {
	transport.Conn
	p *parker
}

func (c parkedConn) Send(to int, data []byte) error {
	c.p.once.Do(func() { close(c.p.parked) })
	<-c.p.release
	return c.Conn.Send(to, data)
}
