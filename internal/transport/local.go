package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// LocalMesh runs all P parties' Mesh endpoints in one process over real
// loopback TCP (optionally mTLS): the deployment-shaped wire path — framed
// lanes multiplexed over P·(P−1)/2 physical sockets — without separate
// processes. The engine uses it in protocol mode so every secret share
// genuinely crosses a socket; tests use it to exercise the mux under -race.
//
// Listener ports are pre-bound before any endpoint dials, so concurrent
// setup never races on port availability.
type LocalMesh struct {
	n      int
	meshes []*Mesh
	lanes  atomic.Uint32
}

// NewLocalMesh builds the P-endpoint loopback mesh. opts applies to every
// endpoint (opts.Listener is overridden per party).
func NewLocalMesh(n int, opts MeshOptions) (*LocalMesh, error) {
	if n < 2 {
		return nil, fmt.Errorf("transport: need at least 2 parties, got %d", n)
	}
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n-1; i++ { // party n-1 accepts nothing
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				if l != nil {
					l.Close()
				}
			}
			return nil, fmt.Errorf("transport: local mesh listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	addrs[n-1] = "127.0.0.1:0" // never dialed

	lm := &LocalMesh{n: n, meshes: make([]*Mesh, n)}
	lm.lanes.Store(15) // lanes 0..15 reserved, matching Mesh.OpenLane

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Listener = lns[i]
			lm.meshes[i], errs[i] = DialMeshMux(i, n, addrs, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			lm.Close()
			return nil, err
		}
	}
	return lm, nil
}

func (lm *LocalMesh) N() int { return lm.n }

// Mesh returns party p's endpoint (for stats, chaos hooks, lane control).
func (lm *LocalMesh) Mesh(p int) *Mesh { return lm.meshes[p] }

// SessionConns opens one multiplexed lane per party, all sharing a fresh
// lane ID, so the P returned Conns form a session-private mesh over the
// shared physical links. The second result is always nil; it is kept only
// so benchmark/, which passes it on as mpc.ConnSet's ignored Drain,
// compiles.
func (lm *LocalMesh) SessionConns() ([]Conn, func()) {
	id := lm.lanes.Add(1)
	conns := make([]Conn, lm.n)
	for p := range conns {
		conns[p] = lm.meshes[p].Lane(id)
	}
	return conns, nil
}

// Stats aggregates all endpoints' mesh counters.
func (lm *LocalMesh) Stats() []MeshStats {
	out := make([]MeshStats, 0, lm.n)
	for _, m := range lm.meshes {
		if m != nil {
			out = append(out, m.Stats())
		}
	}
	return out
}

// Close tears down every endpoint.
func (lm *LocalMesh) Close() error {
	var first error
	for _, m := range lm.meshes {
		if m != nil {
			if err := m.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
