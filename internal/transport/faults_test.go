package transport

import (
	"errors"
	"testing"
	"time"
)

// faultPair wires party 0's endpoint of a 2-party Mem through a FaultConn.
func faultPair(plan FaultPlan) (*Mem, *FaultConn, Conn) {
	m := NewMem(2)
	return m, NewFaultConn(m.Conn(0), plan), m.Conn(1)
}

func TestFaultConnScriptSchedule(t *testing.T) {
	plan := FaultPlan{
		After:  1,
		Script: []FaultKind{FaultDrop, FaultDuplicate, FaultError, FaultNone},
	}
	_, fc, peer := faultPair(plan)
	bound(30*time.Millisecond, peer)

	if fc.Party() != 0 || fc.N() != 2 {
		t.Fatalf("wrapper identity wrong: %d/%d", fc.Party(), fc.N())
	}

	// Op 0 is inside the After window: clean.
	if err := fc.Send(1, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.Recv(0); err != nil || string(got) != "clean" {
		t.Fatalf("clean op = %q, %v", got, err)
	}

	// Op 1: dropped — the peer only sees its round timeout.
	if err := fc.Send(1, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Recv(0); !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("dropped frame delivered: %v", err)
	}

	// Op 2: duplicated — the peer sees the frame twice.
	if err := fc.Send(1, []byte("twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := peer.Recv(0); err != nil || string(got) != "twice" {
			t.Fatalf("duplicate copy %d = %q, %v", i, got, err)
		}
	}

	// Op 3: injected transient error.
	err := fc.Send(1, []byte("failed"))
	if !errors.Is(err, ErrTransient) || !Transient(err) {
		t.Fatalf("injected fault not transient: %v", err)
	}

	// Op 4 (explicit FaultNone) and ops past the script end: clean again.
	for i := 0; i < 2; i++ {
		if err := fc.Send(1, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		if got, err := peer.Recv(0); err != nil || string(got) != "tail" {
			t.Fatalf("post-script op = %q, %v", got, err)
		}
	}

	want := []FaultKind{FaultDrop, FaultDuplicate, FaultError}
	got := fc.Injected()
	if len(got) != len(want) {
		t.Fatalf("injected log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("injected log = %v, want %v", got, want)
		}
	}
	if fc.Ops() != 6 {
		t.Fatalf("ops = %d, want 6", fc.Ops())
	}
}

func TestFaultConnCloseKillsEndpoint(t *testing.T) {
	_, fc, peer := faultPair(FaultPlan{Script: []FaultKind{FaultClose}})
	err := fc.Send(1, []byte("x"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("injected close not classified closed: %v", err)
	}
	if Transient(err) {
		t.Fatalf("injected close classified transient: %v", err)
	}
	// The inner endpoint really is closed: the peer observes it and further
	// sends fail without fault injection's help.
	if _, err := peer.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer after injected close: %v", err)
	}
	if err := fc.Send(1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after injected close: %v", err)
	}
}

func TestFaultConnRecvFaults(t *testing.T) {
	m, fc, peer := faultPair(FaultPlan{Script: []FaultKind{FaultError, FaultNone, FaultClose}})
	for i := 0; i < 3; i++ {
		if err := peer.Send(0, []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fc.Recv(1); !errors.Is(err, ErrTransient) {
		t.Fatalf("injected recv fault: %v", err)
	}
	if got, err := fc.Recv(1); err != nil || string(got) != "frame" {
		t.Fatalf("clean recv = %q, %v", got, err)
	}
	if _, err := fc.Recv(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("injected recv close: %v", err)
	}
	_ = m
}

func TestFaultConnDeterministicProbabilities(t *testing.T) {
	run := func() []FaultKind {
		plan := FaultPlan{Seed: 99, PDrop: 0.2, PError: 0.2, PDelay: 0.1, Delay: time.Microsecond}
		_, fc, _ := faultPair(plan)
		for i := 0; i < 200; i++ {
			fc.Send(1, []byte{byte(i)})
		}
		return fc.Injected()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("probability plan injected nothing in 200 ops")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different injection counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at op %d: %v vs %v", i, a[i], b[i])
		}
	}

	// A different seed draws a different schedule (overwhelmingly likely
	// over 200 ops at these rates).
	plan := FaultPlan{Seed: 100, PDrop: 0.2, PError: 0.2, PDelay: 0.1, Delay: time.Microsecond}
	_, fc, _ := faultPair(plan)
	for i := 0; i < 200; i++ {
		fc.Send(1, []byte{byte(i)})
	}
	c := fc.Injected()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFaultConnDelay(t *testing.T) {
	_, fc, peer := faultPair(FaultPlan{Script: []FaultKind{FaultDelay}, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := fc.Send(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delayed send returned after %v, want >= 20ms", elapsed)
	}
	if got, err := peer.Recv(0); err != nil || string(got) != "slow" {
		t.Fatalf("delayed frame = %q, %v", got, err)
	}
}
