package fedroad

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/transport"
)

// weightHistory is the stress tests' oracle: the joint weights at every
// traffic version, recorded by the one goroutine that applies traffic from
// its own shadow of the silo weights — never read back from the federation.
// Every answer is held to plaintext Dijkstra at the version it echoes.
type weightHistory struct {
	g      *Graph
	shadow []Weights // the traffic writer's copy of the silo weights

	mu    sync.Mutex
	joint map[uint64]Weights
}

// newWeightHistory starts the history at f's current version, whose silo
// weights are silos.
func newWeightHistory(f *Federation, silos []Weights) *weightHistory {
	h := &weightHistory{g: f.Graph(), joint: make(map[uint64]Weights)}
	for _, s := range silos {
		h.shadow = append(h.shadow, slices.Clone(s))
	}
	h.record(f.TrafficVersion())
	return h
}

// apply folds a batch the federation accepted, publishing version ver, into
// the shadow and records that version's joint weights.
func (h *weightHistory) apply(ver uint64, ups []TrafficUpdate) {
	for _, u := range ups {
		h.shadow[u.Silo][u.Arc] = u.TravelMs
	}
	h.record(ver)
}

func (h *weightHistory) record(ver uint64) {
	joint := make(Weights, h.g.NumArcs())
	for _, s := range h.shadow {
		for a, w := range s {
			joint[a] += w
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.joint[ver] = joint
}

// answer is one route a query echoed at a traffic version.
type answer struct {
	ver   uint64
	s, d  Vertex
	route Route
}

// check holds a to Dijkstra on the joint weights of the version it echoes.
func (h *weightHistory) check(a answer) error {
	h.mu.Lock()
	joint, ok := h.joint[a.ver]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("route %d→%d echoes version %d, which no batch published", a.s, a.d, a.ver)
	}
	want, _ := graph.DijkstraTo(h.g, joint, a.s, a.d)
	if found := want < graph.InfCost; a.route.Found != found || (found && JointCost(a.route) != want) {
		return fmt.Errorf("route %d→%d at version %d costs %d (found %v), Dijkstra %d",
			a.s, a.d, a.ver, JointCost(a.route), a.route.Found, want)
	}
	return nil
}

// checkAll checks every answer once the goroutines that gave them are
// joined, and returns how many it checked.
func (h *weightHistory) checkAll(t *testing.T, answers [][]answer) int {
	t.Helper()
	n := 0
	for _, as := range answers {
		for _, a := range as {
			if err := h.check(a); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
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
