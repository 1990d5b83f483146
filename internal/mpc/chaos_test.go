package mpc

import (
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// armedWrap builds a Params.Wrap that leaves endpoints clean until armed is
// set, then wraps the given party's NEXT created endpoint (i.e. the next
// Fork) with a FaultConn on the given plan, leaving the root engine's own
// endpoints clean; the returned getter exposes the installed wrapper.
func armedWrap(party int, plan transport.FaultPlan) (wrap func(int, transport.Conn) transport.Conn, arm *atomic.Bool, installed *atomic.Pointer[transport.FaultConn]) {
	arm = new(atomic.Bool)
	installed = new(atomic.Pointer[transport.FaultConn])
	wrap = func(p int, c transport.Conn) transport.Conn {
		if !arm.Load() || p != party {
			return c
		}
		fc := transport.NewFaultConn(c, plan)
		installed.Store(fc)
		return fc
	}
	return wrap, arm, installed
}

// overConnSources runs a chaos case over both sources of a three-party
// ConnSet — the default in-process network (a nil Params.Dial) and session
// lanes of a loopback mux mesh, what Config.MeshTCP dials — because the
// engine has one endpoint path and its poison rule must hold whichever set
// it was handed.
func overConnSources(t *testing.T, run func(t *testing.T, dial func() (ConnSet, error))) {
	t.Run("mem", func(t *testing.T) { run(t, nil) })
	t.Run("mesh", func(t *testing.T) {
		lm, err := transport.NewLocalMesh(3, transport.MeshOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer lm.Close()
		run(t, func() (ConnSet, error) {
			conns, _ := lm.SessionConns()
			return ConnSet{Conns: conns}, nil
		})
	})
}

func TestChaosTransientFaultPoisonsWithoutReplay(t *testing.T) {
	overConnSources(t, testChaosTransientFaultPoisonsWithoutReplay)
}

func testChaosTransientFaultPoisonsWithoutReplay(t *testing.T, dial func() (ConnSet, error)) {
	// Party 0's first protocol operation fails with an injected fault. A
	// Fed-SAC instance runs once: the fork is poisoned at that first failure,
	// party 0 never touches its endpoint again, and the next fork answers
	// right.
	wrap, arm, installed := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         31,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial:         dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	if _, err := e.Compare([]int64{-7, 2, 1}); !errors.Is(err, ErrPoisoned) || !errors.Is(err, transport.ErrTransient) {
		t.Fatalf("compare with an injected fault = %v, want ErrPoisoned wrapping the injected fault", err)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned")
	}
	if ops := installed.Load().Ops(); ops != 1 {
		t.Fatalf("party 0 made %d transport operations, want the faulted one only (no replay)", ops)
	}
	if inj := installed.Load().Injected(); len(inj) != 1 || inj[0] != transport.FaultError {
		t.Fatalf("injected log = %v, want one injected error", inj)
	}

	arm.Store(false)
	f := root.Fork()
	defer f.Close()
	for _, c := range []struct {
		in   []int64
		want bool
	}{{[]int64{-7, 2, 1}, true}, {[]int64{5, -2, 1}, false}} {
		if got, err := f.Compare(c.in); err != nil || got != c.want {
			t.Fatalf("next fork: compare %v = %v, %v, want %v", c.in, got, err, c.want)
		}
	}
}

func TestChaosTimeoutWithoutRetryPoisons(t *testing.T) {
	overConnSources(t, testChaosTimeoutWithoutRetryPoisons)
}

func testChaosTimeoutWithoutRetryPoisons(t *testing.T, dial func() (ConnSet, error)) {
	// Party 0 silently drops a frame. The round times out at the starved
	// peer, and the engine must poison itself: its streams may hold half a
	// round's frames.
	wrap, arm, _ := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultDrop}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         32,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial:         dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	start := time.Now()
	_, err = e.Compare([]int64{-1, 0, 0})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("comparison with a dropped frame succeeded")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("error does not wrap ErrPoisoned: %v", err)
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("error does not surface the round timeout: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out round took %v, round timeout is 100ms", elapsed)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned after unrecoverable timeout")
	}

	// Poisoned engines fail fast, without touching the transport again.
	start = time.Now()
	if _, err := e.Compare([]int64{-1, 0, 0}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned compare = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("poisoned compare did not fail fast")
	}

	// The root and fresh forks are unaffected.
	arm.Store(false)
	if got, err := root.Compare([]int64{-1, 0, 0}); err != nil || !got {
		t.Fatalf("root compare after fork poisoning = %v, %v", got, err)
	}
	f := root.Fork()
	defer f.Close()
	if got, err := f.Compare([]int64{-1, 0, 0}); err != nil || !got {
		t.Fatalf("fresh fork compare = %v, %v", got, err)
	}
}

func TestChaosCloseMidRoundPoisonsDespiteRetries(t *testing.T) {
	overConnSources(t, testChaosCloseMidRoundPoisonsDespiteRetries)
}

func testChaosCloseMidRoundPoisonsDespiteRetries(t *testing.T, dial func() (ConnSet, error)) {
	// A crashed party (closed endpoint mid-round) poisons the engine, and
	// the error names the closed endpoint ahead of the timeouts it starved
	// its peers into, within about one round timeout.
	wrap, arm, _ := armedWrap(1, transport.FaultPlan{After: 2, Script: []transport.FaultKind{transport.FaultClose}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         33,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial:         dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	start := time.Now()
	_, err = e.Compare([]int64{-1, 0, 0})
	if err == nil {
		t.Fatal("comparison with a crashed party succeeded")
	}
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("crash error classification: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("crashed-party compare took %v, round timeout is 100ms", elapsed)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned after crash")
	}
}

func TestChaosNilDrainPoisonsOnFirstTransientFault(t *testing.T) {
	// A ConnSet whose Drain is nil, handed in by a caller's own Dial, runs
	// under the same one-attempt rule: the injected fault poisons the fork
	// without a second attempt.
	wrap, arm, installed := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         31,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial: func() (ConnSet, error) {
			cs, err := memDial(3)()
			cs.Drain = nil
			return cs, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	arm.Store(true)
	e := root.Fork()
	defer e.Close()
	if _, err := e.Compare([]int64{-7, 2, 1}); !errors.Is(err, ErrPoisoned) || !errors.Is(err, transport.ErrTransient) {
		t.Fatalf("compare over a nil-Drain set = %v, want ErrPoisoned wrapping the injected fault", err)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned")
	}
	if ops := installed.Load().Ops(); ops != 1 {
		t.Fatalf("party 0 made %d transport operations, want the faulted one only (no replay)", ops)
	}
}

func TestChaosBatchCompare(t *testing.T) { overConnSources(t, testChaosBatchCompare) }

func testChaosBatchCompare(t *testing.T, dial func() (ConnSet, error)) {
	// Batches run under the same poison rule as single compares: an
	// injected fault poisons the fork, and the next fork answers every
	// instance right.
	wrap, arm, _ := armedWrap(2, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         34,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial:         dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	diffs := [][]int64{{-3, 1, 1}, {4, -1, -1}, {-9, 4, 4}} // sums -1, 2, -1
	want := []bool{true, false, true}

	arm.Store(true)
	e := root.Fork()
	defer e.Close()
	if _, err := e.CompareBatch(diffs); !errors.Is(err, ErrPoisoned) || !e.Poisoned() {
		t.Fatalf("batched injected fault = %v, want the fork poisoned", err)
	}
	arm.Store(false)
	f := root.Fork()
	defer f.Close()
	got, err := f.CompareBatch(diffs)
	if err != nil {
		t.Fatalf("next fork's batch: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch bits = %v, want %v", got, want)
		}
	}

	// A crash mid-batch poisons, exactly like a single comparison's.
	wrap2, arm2, _ := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultClose}})
	root2, err := NewEngine(Params{
		Parties: 3, Mode: ModeProtocol, Seed: 35,
		RoundTimeout: 100 * time.Millisecond, Wrap: wrap2, Dial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm2.Store(true)
	e2 := root2.Fork()
	defer e2.Close()
	if _, err := e2.CompareBatch(diffs); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("batched crash error = %v", err)
	}
	if !e2.Poisoned() {
		t.Fatal("engine not poisoned after batched crash")
	}
}

func TestChaosPackedRaggedBatch(t *testing.T) { overConnSources(t, testChaosPackedRaggedBatch) }

func testChaosPackedRaggedBatch(t *testing.T, dial func() (ConnSet, error)) {
	// Word-lane rounds under fault injection: an injected fault mid-batch on
	// a ragged (non-multiple-of-8) lane count poisons the fork, and the next
	// fork gets every lane right.
	rng := rand.New(rand.NewPCG(77, 77))
	diffs, want := randomBatch(rng, 3, 13)
	wrap, arm, _ := armedWrap(1, transport.FaultPlan{After: 1, Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         36,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
		Dial:         dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	arm.Store(true)
	e := root.Fork()
	defer e.Close()
	if _, err := e.CompareBatch(diffs); !errors.Is(err, ErrPoisoned) || !e.Poisoned() {
		t.Fatalf("ragged batch with an injected fault = %v, want the fork poisoned", err)
	}
	arm.Store(false)
	f := root.Fork()
	defer f.Close()
	got, err := f.CompareBatch(diffs)
	if err != nil {
		t.Fatalf("next fork's ragged batch: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d wrong", i)
		}
	}
}

func TestChaosRandomizedSoak(t *testing.T) { overConnSources(t, testChaosRandomizedSoak) }

func testChaosRandomizedSoak(t *testing.T, dial func() (ConnSet, error)) {
	// Seeded random fault schedules (drops, delays, transient errors and the
	// occasional crash — no duplicates, which desynchronize FIFO streams and
	// are exercised separately) hammer single comparisons. The invariants:
	// never a panic or a hang, every error wraps ErrPoisoned, and every
	// successful comparison returns the right bit.
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := uint64(0); seed < 4; seed++ {
		plan := transport.FaultPlan{
			Seed:   seed,
			PDelay: 0.05, PDrop: 0.02, PError: 0.05, PClose: 0.005,
			Delay: 200 * time.Microsecond,
		}
		wrap, arm, _ := armedWrap(int(seed)%3, plan)
		root, err := NewEngine(Params{
			Parties:      3,
			Mode:         ModeProtocol,
			Seed:         seed + 100,
			RoundTimeout: 50 * time.Millisecond,
			Wrap:         wrap,
			Dial:         dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		arm.Store(true)
		e := root.Fork()

		inputs := [][]int64{{-5, 2, 1}, {3, -1, -1}, {0, 0, -1}, {7, -3, -3}}
		wantBits := []bool{true, false, true, false}
		for i := 0; i < 25; i++ {
			in := inputs[i%len(inputs)]
			got, err := e.Compare(in)
			if err != nil {
				if !errors.Is(err, ErrPoisoned) {
					t.Fatalf("seed %d compare %d: unclassified failure: %v", seed, i, err)
				}
				e.Close()
				e = root.Fork() // a poisoned session is discarded, not reused
				continue
			}
			if got != wantBits[i%len(inputs)] {
				t.Fatalf("seed %d compare %d: wrong bit under faults", seed, i)
			}
		}
		e.Close()
	}
}
