package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMemBasicExchange(t *testing.T) {
	m := NewMem(3)
	c0, c1, c2 := m.Conn(0), m.Conn(1), m.Conn(2)
	if c0.Party() != 0 || c0.N() != 3 {
		t.Fatalf("endpoint identity wrong: %d/%d", c0.Party(), c0.N())
	}
	if err := c0.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(1, []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := c1.Recv(0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv(0) = %q, %v", got, err)
	}
	got, err = c1.Recv(2)
	if err != nil || string(got) != "world" {
		t.Fatalf("Recv(2) = %q, %v", got, err)
	}
	st := m.Stats()
	if st.Bytes != 10 || st.Messages != 2 {
		t.Fatalf("stats = %+v, want 10 bytes / 2 messages", st)
	}
	m.ResetStats()
	if st := m.Stats(); st.Bytes != 0 || st.Messages != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestMemFIFOPerPair(t *testing.T) {
	m := NewMem(2)
	c0, c1 := m.Conn(0), m.Conn(1)
	for i := 0; i < 100; i++ {
		if err := c0.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := c1.Recv(0)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("message %d out of order: %v %v", i, got, err)
		}
	}
}

func TestMemSendDoesNotAliasCallerBuffer(t *testing.T) {
	m := NewMem(2)
	c0, c1 := m.Conn(0), m.Conn(1)
	buf := []byte{1, 2, 3}
	if err := c0.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, _ := c1.Recv(0)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("message corrupted by caller mutation: %v", got)
	}
}

func TestMemInvalidEndpoints(t *testing.T) {
	m := NewMem(2)
	c0 := m.Conn(0)
	if err := c0.Send(0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := c0.Send(5, nil); err == nil {
		t.Fatal("out-of-range send accepted")
	}
	if _, err := c0.Recv(0); err == nil {
		t.Fatal("self-recv accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Conn must panic")
		}
	}()
	m.Conn(9)
}

func TestMemClose(t *testing.T) {
	m := NewMem(2)
	c0, c1 := m.Conn(0), m.Conn(1)
	c0.Send(1, []byte("x"))
	if err := c0.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered message still deliverable, then closed.
	if got, err := c1.Recv(0); err != nil || string(got) != "x" {
		t.Fatalf("buffered delivery after close: %q %v", got, err)
	}
	if _, err := c1.Recv(0); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := c0.Send(1, []byte("y")); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if err := c0.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
}

func TestMemConcurrentParties(t *testing.T) {
	const n = 4
	const rounds = 200
	m := NewMem(n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := m.Conn(p)
			for r := 0; r < rounds; r++ {
				for q := 0; q < n; q++ {
					if q != p {
						if err := c.Send(q, []byte{byte(p), byte(r)}); err != nil {
							errs <- err
							return
						}
					}
				}
				for q := 0; q < n; q++ {
					if q == p {
						continue
					}
					got, err := c.Recv(q)
					if err != nil {
						errs <- err
						return
					}
					if got[0] != byte(q) || got[1] != byte(r) {
						errs <- fmt.Errorf("party %d round %d: got %v from %d", p, r, got, q)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := m.Stats()
	wantMsgs := int64(n * (n - 1) * rounds)
	if st.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d", st.Messages, wantMsgs)
	}
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// dialMeshes brings up n mesh endpoints the way n processes would: every
// party binds its own listen address and dials its lower-ranked peers by
// address, retrying until they listen. Torn down with the test.
func dialMeshes(t *testing.T, n int, opts MeshOptions) []*Mesh {
	t.Helper()
	addrs := freeAddrs(t, n)
	meshes := make([]*Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range meshes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			meshes[i], errs[i] = DialMeshMux(i, n, addrs, opts)
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return meshes
}

// lanePair dials a two-party mesh and binds the same lane on both ends.
func lanePair(t *testing.T, opts MeshOptions) (a, b *LaneConn) {
	t.Helper()
	meshes := dialMeshes(t, 2, opts)
	return meshes[0].Lane(40), meshes[1].Lane(40)
}

func TestTCPMeshExchange(t *testing.T) {
	const n = 3
	// No heartbeats: the frame count below is protocol frames only.
	meshes := dialMeshes(t, n, MeshOptions{Heartbeat: -1})
	conns := make([]*LaneConn, n)
	for i, m := range meshes {
		conns[i] = m.Lane(40)
	}

	// Round-trip: every party sends a tagged frame to every other party.
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if q != p {
				if err := conns[p].Send(q, []byte(fmt.Sprintf("msg-%d-%d", p, q))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			if p == q {
				continue
			}
			got, err := conns[q].Recv(p)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("msg-%d-%d", p, q)
			if string(got) != want {
				t.Fatalf("party %d got %q from %d, want %q", q, got, p, want)
			}
		}
	}
	if st := meshes[0].Stats(); st.MsgsSent != n-1 {
		t.Fatalf("party 0 sent %d frames, want %d", st.MsgsSent, n-1)
	}
}

func TestTCPLargeFrame(t *testing.T) {
	a, b := lanePair(t, MeshOptions{})
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	go func() {
		done <- a.Send(1, payload)
	}()
	got, err := b.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large frame corrupted")
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	a, b := lanePair(t, MeshOptions{Heartbeat: -1})
	b.SetRoundTimeout(5 * time.Second)
	if err := a.Send(1, make([]byte, muxMaxFrame+1)); err == nil {
		t.Fatal("oversized send accepted")
	}
	// Forge a frame header claiming 1 GiB directly on the socket: the
	// receiver must drop the link instead of allocating or delivering it.
	var hdr [muxHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], a.ID())
	binary.LittleEndian.PutUint32(hdr[8:], 1<<30)
	if _, err := a.m.links[1].Load().conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("recv of an oversized frame: %v, want ErrPeerDown", err)
	}
}

func TestTCPDialMeshValidation(t *testing.T) {
	if _, err := DialMeshMux(0, 3, []string{"x"}, MeshOptions{}); err == nil {
		t.Fatal("wrong addr count accepted")
	}
	if _, err := DialMeshMux(3, 3, []string{"x", "y", "z"}, MeshOptions{}); err == nil {
		t.Fatal("out-of-range party accepted")
	}
	// Nobody listening on the peers: set-up must time out, typed.
	start := time.Now()
	_, err := DialMeshMux(2, 3, []string{"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:0"},
		MeshOptions{DialTimeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dial to dead peers: %v, want ErrPeerDown", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honored")
	}
}

func TestTCPSendRecvValidation(t *testing.T) {
	a, _ := lanePair(t, MeshOptions{})
	if err := a.Send(0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := a.Send(5, nil); err == nil {
		t.Fatal("out-of-range send accepted")
	}
	if _, err := a.Recv(0); err == nil {
		t.Fatal("self-recv accepted")
	}
	if a.Party() != 0 || a.N() != 2 {
		t.Fatal("identity wrong")
	}
}

func TestErrorClassification(t *testing.T) {
	if Transient(nil) || IsTimeout(nil) {
		t.Fatal("nil error classified as a fault")
	}
	if Transient(ErrClosed) {
		t.Fatal("closed endpoint classified as transient")
	}
	if !Transient(ErrTransient) || !Transient(ErrRoundTimeout) {
		t.Fatal("transient sentinels not classified as transient")
	}
	if !IsTimeout(ErrRoundTimeout) || IsTimeout(ErrTransient) {
		t.Fatal("timeout classification wrong on sentinels")
	}
	// Classification must survive wrapping through protocol layers.
	wrapped := fmt.Errorf("mpc: party 1: %w", fmt.Errorf("transport: recv from 0: %w", ErrRoundTimeout))
	if !Transient(wrapped) || !IsTimeout(wrapped) {
		t.Fatalf("wrapped timeout not classified: %v", wrapped)
	}
}

// bound sets the round timeout of Mem endpoints.
func bound(d time.Duration, conns ...Conn) {
	for _, c := range conns {
		c.(*memConn).SetRoundTimeout(d)
	}
}

func TestMemRecvTimeout(t *testing.T) {
	m := NewMem(2)
	c0, c1 := m.Conn(0), m.Conn(1)
	bound(50*time.Millisecond, c0)

	start := time.Now()
	_, err := c0.Recv(1) // nobody sends: the wait must expire, not block
	if err == nil {
		t.Fatal("recv with no sender succeeded")
	}
	if !errors.Is(err, ErrRoundTimeout) || !IsTimeout(err) || !Transient(err) {
		t.Fatalf("timeout not classified: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded recv took %v", elapsed)
	}

	// An expired wait does not damage the endpoint.
	if err := c1.Send(0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.Recv(1); err != nil || string(got) != "late" {
		t.Fatalf("recv after timeout = %q, %v", got, err)
	}

	// Zero disables the bound again.
	bound(0, c0)
	if err := c1.Send(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Recv(1); err != nil {
		t.Fatal(err)
	}
}

func TestMemDrain(t *testing.T) {
	m := NewMem(3)
	c0, c1, c2 := m.Conn(0), m.Conn(1), m.Conn(2)
	c0.Send(1, []byte("stale-a"))
	c2.Send(1, []byte("stale-b"))
	c1.Send(0, []byte("stale-c"))
	m.Drain()

	bound(20*time.Millisecond, c0, c1)
	for _, probe := range []struct {
		conn Conn
		from int
	}{{c1, 0}, {c1, 2}, {c0, 1}} {
		if _, err := probe.conn.Recv(probe.from); !errors.Is(err, ErrRoundTimeout) {
			t.Fatalf("stale frame survived drain at party %d from %d: %v",
				probe.conn.Party(), probe.from, err)
		}
	}

	// Fresh traffic flows after a drain.
	if err := c0.Send(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, err := c1.Recv(0); err != nil || string(got) != "fresh" {
		t.Fatalf("recv after drain = %q, %v", got, err)
	}

	// Draining a network with a closed endpoint must not panic.
	c2.Close()
	m.Drain()
}

func TestTCPRoundTimeout(t *testing.T) {
	a, b := lanePair(t, MeshOptions{})
	a.SetRoundTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err := a.Recv(1) // peer silent: the round timeout must fire
	if err == nil {
		t.Fatal("recv from a silent peer succeeded")
	}
	if !errors.Is(err, ErrRoundTimeout) || !IsTimeout(err) || !Transient(err) {
		t.Fatalf("lane timeout not classified: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded recv took %v", elapsed)
	}

	// The lane survives an expired wait; later rounds proceed.
	if err := b.Send(0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Recv(1); err != nil || string(got) != "late" {
		t.Fatalf("recv after timeout = %q, %v", got, err)
	}
	a.SetRoundTimeout(0)
	if err := b.Send(0, []byte("unbounded")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(1); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialMeshMidHandshakeFailure(t *testing.T) {
	// Party 1 of 3 accepts from party 2 and dials party 0. We play both of
	// its peers: party 0 is either unreachable (the dial loop keeps retrying)
	// or completes the handshake and idles, and party 2 never shows up — all
	// party 1 ever accepts is a connection with a malformed hello. Set-up
	// must give up at DialTimeout with the typed error, and must not leave
	// its accept loop, dial loops, link readers or heartbeat senders running.
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		deadDialPeer := round%2 == 0
		addrs := freeAddrs(t, 3)

		var party0 net.Listener
		if deadDialPeer {
			addrs[0] = "127.0.0.1:1" // refused: the dial loop retries until stopped
		} else {
			var err error
			party0, err = net.Listen("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			go func() { // complete party 1's dial-side handshake, then idle
				conn, err := party0.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var hello [muxHelloLen]byte
				io.ReadFull(conn, hello[:])
				io.Copy(io.Discard, conn) // until party 1 hangs up
			}()
		}

		done := make(chan error, 1)
		go func() {
			m, err := DialMeshMux(1, 3, addrs, MeshOptions{DialTimeout: 400 * time.Millisecond})
			if m != nil {
				m.Close()
			}
			done <- err
		}()

		// Fake party 2: connect to party 1's listener and send a hello
		// claiming to be party 0 (only higher-ranked parties may introduce
		// themselves on the accept side).
		var bad net.Conn
		var err error
		for i := 0; ; i++ {
			bad, err = net.Dial("tcp", addrs[1])
			if err == nil {
				break
			}
			if i > 2000 {
				t.Fatal("party 1 never started listening")
			}
			time.Sleep(2 * time.Millisecond)
		}
		var hello [muxHelloLen]byte
		binary.LittleEndian.PutUint32(hello[0:], muxHelloMagic)
		binary.LittleEndian.PutUint32(hello[4:], muxHelloVersion)
		if _, err := bad.Write(hello[:]); err != nil {
			t.Fatal(err)
		}

		select {
		case err := <-done:
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("mesh set-up without party 2: %v, want ErrPeerDown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("DialMeshMux did not give up at DialTimeout")
		}
		bad.Close()
		if party0 != nil {
			party0.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after: failed mesh set-ups left goroutines running",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
