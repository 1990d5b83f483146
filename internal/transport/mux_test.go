package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// twoMesh builds a 2-endpoint loopback mux mesh (one physical link) and
// tears it down with the test.
func twoMesh(t *testing.T, opts MeshOptions) *LocalMesh {
	t.Helper()
	lm, err := NewLocalMesh(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lm.Close() })
	return lm
}

// TestWriteFailureIsTyped: a write that fails its link is a typed error — a
// deadline is a timeout, and a link closed under the write (a break or a
// redial racing a Send) is ErrPeerDown, not a bare socket error.
func TestWriteFailureIsTyped(t *testing.T) {
	if err := opError("send to", 1, net.ErrClosed); !errors.Is(err, ErrPeerDown) || IsTimeout(err) {
		t.Fatalf("closed connection: %v", err)
	}
	if err := opError("send to", 1, os.ErrDeadlineExceeded); !IsTimeout(err) || errors.Is(err, ErrPeerDown) {
		t.Fatalf("deadline: %v", err)
	}
}

// TestMuxThousandLanes is the lane-scalability acceptance test: 1024
// concurrent session lanes between one silo pair, all multiplexed over the
// single physical TCP connection, each running an independent tagged
// ping-pong stream. Run under -race in CI.
func TestMuxThousandLanes(t *testing.T) {
	lm := twoMesh(t, MeshOptions{})
	const (
		lanes = 1024
		msgs  = 8
	)
	recvBudget := 30 * time.Second // generous: -race serializes heavily

	var wg sync.WaitGroup
	errCh := make(chan error, 2*lanes)
	for i := 0; i < lanes; i++ {
		id := uint32(1000 + i)
		a := lm.Mesh(0).Lane(id)
		b := lm.Mesh(1).Lane(id)
		a.SetRoundTimeout(recvBudget)
		b.SetRoundTimeout(recvBudget)
		wg.Add(2)
		go func(id uint32, a *LaneConn) {
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				payload := fmt.Sprintf("lane %d msg %d", id, m)
				if err := a.Send(1, []byte(payload)); err != nil {
					errCh <- fmt.Errorf("lane %d send: %w", id, err)
					return
				}
				got, err := a.Recv(1)
				if err != nil {
					errCh <- fmt.Errorf("lane %d recv: %w", id, err)
					return
				}
				if string(got) != payload+"/echo" {
					errCh <- fmt.Errorf("lane %d cross-talk: got %q, want %q/echo", id, got, payload)
					return
				}
			}
		}(id, a)
		go func(id uint32, b *LaneConn) {
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				got, err := b.Recv(0)
				if err != nil {
					errCh <- fmt.Errorf("lane %d echo recv: %w", id, err)
					return
				}
				if err := b.Send(0, append(got, "/echo"...)); err != nil {
					errCh <- fmt.Errorf("lane %d echo send: %w", id, err)
					return
				}
			}
		}(id, b)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// All of it rode ONE physical connection: one link up, generation 1,
	// zero reconnects.
	for p := 0; p < 2; p++ {
		st := lm.Mesh(p).Stats()
		if st.LinksUp != 1 || st.Reconnects != 0 {
			t.Fatalf("party %d: links=%d reconnects=%d, want 1/0 (lanes leaked onto extra connections?)",
				p, st.LinksUp, st.Reconnects)
		}
		for _, ps := range st.Peers {
			if ps.Up && ps.Generation != 1 {
				t.Fatalf("party %d peer %d: generation %d, want 1", p, ps.Peer, ps.Generation)
			}
		}
	}
}

// realPair names one way of standing up a lane over real sockets for the
// fault matrix: endpoints dialed by address as separate processes would, and
// the in-process loopback mesh on pre-bound listeners.
type realPair struct {
	name  string
	build func(t *testing.T) (a, b Conn, setTimeout func(time.Duration))
}

func realPairs() []realPair {
	lanes := func(a, b *LaneConn) (Conn, Conn, func(time.Duration)) {
		return a, b, func(d time.Duration) {
			a.SetRoundTimeout(d)
			b.SetRoundTimeout(d)
		}
	}
	return []realPair{
		{"tcp", func(t *testing.T) (Conn, Conn, func(time.Duration)) {
			t.Helper()
			return lanes(lanePair(t, MeshOptions{}))
		}},
		{"mux", func(t *testing.T) (Conn, Conn, func(time.Duration)) {
			t.Helper()
			lm := twoMesh(t, MeshOptions{})
			return lanes(lm.Mesh(0).Lane(77), lm.Mesh(1).Lane(77))
		}},
	}
}

// TestFaultMatrixOverRealSockets replays the PR-2 fault matrix — delay,
// drop, duplicate, transient error, close — against multiplexed mesh lanes
// over real TCP sockets, asserting each fault surfaces with the
// same typed semantics the in-memory transport established: drops become
// round timeouts, duplicates stay FIFO-visible, injected errors are
// ErrTransient and no timeout, closes are terminal.
func TestFaultMatrixOverRealSockets(t *testing.T) {
	for _, pair := range realPairs() {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			t.Run("delay", func(t *testing.T) {
				a, b, setTO := pair.build(t)
				setTO(5 * time.Second)
				fc := NewFaultConn(a, FaultPlan{Script: []FaultKind{FaultDelay}, Delay: 30 * time.Millisecond})
				start := time.Now()
				if err := fc.Send(1, []byte("slow")); err != nil {
					t.Fatal(err)
				}
				if got, err := b.Recv(0); err != nil || string(got) != "slow" {
					t.Fatalf("recv after delay: %q, %v", got, err)
				}
				if time.Since(start) < 30*time.Millisecond {
					t.Fatal("delay not applied")
				}
			})
			t.Run("drop", func(t *testing.T) {
				a, b, setTO := pair.build(t)
				setTO(150 * time.Millisecond)
				fc := NewFaultConn(a, FaultPlan{Script: []FaultKind{FaultDrop}})
				if err := fc.Send(1, []byte("lost")); err != nil {
					t.Fatal(err)
				}
				_, err := b.Recv(0)
				if !IsTimeout(err) {
					t.Fatalf("recv of dropped frame: %v, want round timeout", err)
				}
			})
			t.Run("duplicate", func(t *testing.T) {
				a, b, setTO := pair.build(t)
				setTO(5 * time.Second)
				fc := NewFaultConn(a, FaultPlan{Script: []FaultKind{FaultDuplicate}})
				if err := fc.Send(1, []byte("twice")); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, err := b.Recv(0)
					if err != nil || string(got) != "twice" {
						t.Fatalf("dup copy %d: %q, %v", i, got, err)
					}
				}
			})
			t.Run("error", func(t *testing.T) {
				a, _, setTO := pair.build(t)
				setTO(5 * time.Second)
				fc := NewFaultConn(a, FaultPlan{Script: []FaultKind{FaultError}})
				err := fc.Send(1, []byte("x"))
				if !errors.Is(err, ErrTransient) || IsTimeout(err) {
					t.Fatalf("injected fault: %v, want ErrTransient, not a timeout", err)
				}
			})
			t.Run("close", func(t *testing.T) {
				a, b, setTO := pair.build(t)
				setTO(300 * time.Millisecond)
				fc := NewFaultConn(a, FaultPlan{Script: []FaultKind{FaultClose}})
				if err := fc.Send(1, []byte("dying")); err == nil {
					t.Fatal("send through injected close succeeded")
				}
				// The victim's endpoint is gone: the peer must fail typed —
				// never hang. A closed mux lane starves the peer into its
				// round timeout.
				if _, err := b.Recv(0); err == nil {
					t.Fatal("recv from closed endpoint succeeded")
				}
			})
		})
	}
}

// TestMuxLinkBreakRecovery exercises the transport-level break/redial loop:
// an in-flight Recv wakes immediately with ErrPeerDown (not a slow
// timeout), the dialer re-establishes the link in the background, and a
// fresh lane over the new generation carries traffic. The reconnect shows
// up in the counters on both sides.
func TestMuxLinkBreakRecovery(t *testing.T) {
	lm := twoMesh(t, MeshOptions{RedialMin: 10 * time.Millisecond})
	a := lm.Mesh(0).Lane(20)
	b := lm.Mesh(1).Lane(20)
	a.SetRoundTimeout(2 * time.Second)
	b.SetRoundTimeout(2 * time.Second)
	if err := a.Send(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Recv(0); err != nil || string(got) != "pre" {
		t.Fatalf("pre-break: %q, %v", got, err)
	}

	// Break under a blocked Recv: it must fail fast with ErrPeerDown.
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv(0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	lm.Mesh(1).BreakLink(0)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDown) || IsTimeout(err) {
			t.Fatalf("recv across break: %v, want ErrPeerDown, not a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not wake on link break")
	}

	// The mesh heals itself; a fresh lane rides the new generation.
	deadline := time.Now().Add(5 * time.Second)
	for !(lm.Mesh(0).LinkUp(1) && lm.Mesh(1).LinkUp(0)) {
		if time.Now().After(deadline) {
			t.Fatal("link did not re-establish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a2 := lm.Mesh(0).Lane(21)
	b2 := lm.Mesh(1).Lane(21)
	a2.SetRoundTimeout(2 * time.Second)
	b2.SetRoundTimeout(2 * time.Second)
	if err := a2.Send(1, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if got, err := b2.Recv(0); err != nil || string(got) != "post" {
		t.Fatalf("post-reconnect: %q, %v", got, err)
	}
	if st := lm.Mesh(1).Stats(); st.Reconnects == 0 {
		t.Fatalf("reconnect not counted: %+v", st)
	}
}
