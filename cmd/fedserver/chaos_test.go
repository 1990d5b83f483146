package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/transport"
)

// faults are the switches a test flips on a chaosServer's transport: kill
// closes party 1's endpoint mid-round (a crashed silo), mute silently swallows
// its sends (a silo that stops responding, detectable only by round timeout),
// and hold — while the test keeps it write-locked — parks every party at its
// next send, so queries stay in flight (and in the admission gate) without
// any round timing out. All are checked per operation.
type faults struct {
	kill, mute atomic.Bool
	hold       sync.RWMutex
}

type gateConn struct {
	transport.Conn
	f *faults
}

func (g gateConn) Send(to int, data []byte) error {
	g.f.hold.RLock()
	g.f.hold.RUnlock()
	if g.Party() != 1 {
		return g.Conn.Send(to, data)
	}
	if g.f.kill.Load() {
		g.Conn.Close()
		return fmt.Errorf("chaos: killed during send: %w", transport.ErrClosed)
	}
	if g.f.mute.Load() {
		return nil // swallowed: the peer's round timeout must fire
	}
	return g.Conn.Send(to, data)
}

func (g gateConn) Recv(from int) ([]byte, error) {
	if g.Party() == 1 && g.f.kill.Load() {
		g.Conn.Close()
		return nil, fmt.Errorf("chaos: killed during recv: %w", transport.ErrClosed)
	}
	return g.Conn.Recv(from)
}

// chaosServer serves a small protocol-mode federation whose parties run
// through gateConns, over a real HTTP listener.
func chaosServer(t *testing.T, maxConcurrent, maxQueue int) (*httptest.Server, *faults) {
	t.Helper()
	f := new(faults)
	g, w0 := fedroad.GenerateGridNetwork(5, 5, 61)
	silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 62)
	fed, err := fedroad.New(g, w0, silosW, fedroad.Config{
		Seed:         63,
		Mode:         fedroad.ModeProtocol,
		RoundTimeout: 150 * time.Millisecond,
		TransportWrap: func(p int, c transport.Conn) transport.Conn {
			return gateConn{Conn: c, f: f}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	ts := httptest.NewServer(newServer(fed, maxConcurrent, maxQueue, 0).routes())
	t.Cleanup(ts.Close)
	return ts, f
}

// A request whose session meets a dead silo answers 503 and takes the session
// with it; the next request after the silo returns opens a fresh one.
func TestServerKilledSiloGives503ThenRecovers(t *testing.T) {
	ts, f := chaosServer(t, 4, 0)

	var resp routeResponse
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", &resp); r.StatusCode != http.StatusOK || !resp.Found {
		t.Fatalf("healthy route: %d %+v", r.StatusCode, resp)
	}

	f.kill.Store(true)
	before := scrape(t, ts.URL)["fedroad_mpc_poisonings_total"]
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("killed-silo route status %d, want 503", r.StatusCode)
	}
	if after := scrape(t, ts.URL)["fedroad_mpc_poisonings_total"]; after != before+1 {
		t.Fatalf("fedroad_mpc_poisonings_total %v -> %v, want one poisoned session", before, after)
	}

	f.kill.Store(false)
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", &resp); r.StatusCode != http.StatusOK || !resp.Found {
		t.Fatalf("post-recovery route: %d %+v", r.StatusCode, resp)
	}
}

func TestServerSilentSiloGives504(t *testing.T) {
	ts, f := chaosServer(t, 4, 0)

	f.mute.Store(true)
	start := time.Now()
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", nil); r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("silent-silo route status %d, want 504", r.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("silent-silo query took %v, round timeout is 150ms", elapsed)
	}

	f.mute.Store(false)
	var resp routeResponse
	if r := getJSON(t, ts.URL+"/route?s=0&t=24", &resp); r.StatusCode != http.StatusOK || !resp.Found {
		t.Fatalf("post-recovery route: %d %+v", r.StatusCode, resp)
	}
}
