package mpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// ErrPoisoned is returned (wrapped) by every comparison after the engine has
// suffered an unrecoverable transport failure. A poisoned engine's transport
// streams are in an unknown state — possibly desynchronized mid-round — so
// continuing could produce silently wrong comparison bits; the engine
// instead fails fast and its owner must discard it (sessions: close the
// session and open a fresh one).
var ErrPoisoned = errors.New("mpc: engine poisoned by unrecoverable transport failure")

// ErrMagnitude is returned (wrapped) by CompareBatch when a party's input
// difference is too large for the comparison to be sound: the sign bit of
// Σ diffs is meaningful only while |Σ diffs| < MaxMagnitude, which every
// party can guarantee on its own share by keeping |diffs[p]| below
// MaxMagnitude/n. The batch is refused before any randomness is drawn or
// frame sent, so the engine is not poisoned and stays usable.
var ErrMagnitude = errors.New("mpc: input difference exceeds the magnitude bound")

// Mode selects how the engine executes comparisons.
type Mode int

const (
	// ModeIdeal evaluates the ideal functionality directly (same outputs as
	// the protocol, no messages) and accounts communication analytically:
	// the protocols are data-oblivious, so their wire cost is an exact
	// closed-form function of (parties, batch size) — batchWireCost, the same
	// formula protocol mode accounts with. The paper-reproduction harness
	// (fedbench) uses this mode so that large parameter sweeps stay tractable
	// while byte, round and message counts remain exact.
	ModeIdeal Mode = iota
	// ModeProtocol runs the full secret-sharing protocol between party
	// goroutines, over the endpoints Params.Dial supplies. Every fedroad
	// federation runs this mode unless its Config names fedroad.ModeIdeal
	// (tests do, for speed): the facade, fedserver, cmd/fedroad, the examples
	// and the repo benchmark.
	ModeProtocol
)

// NetworkModel carries the parameters of the paper's communication cost
// model for a secure operation: R·(L + S/B) with R rounds, S bytes per round
// per party, latency L and bandwidth B (§VIII-B).
type NetworkModel struct {
	Latency   time.Duration // one-way latency L
	Bandwidth float64       // bytes per second B
}

// DefaultLAN mirrors the paper's testbed: ~0.2 ms LAN latency, 1 GB/s links.
func DefaultLAN() NetworkModel {
	return NetworkModel{Latency: 200 * time.Microsecond, Bandwidth: 1e9}
}

// Predict applies the model to measured counters: the network time the
// rounds and bytes of st would take among the given number of parties,
// Rounds·L + Bytes/(parties·B). It is a prediction, never a measurement; the
// engine applies no delay and records no time.
func (m NetworkModel) Predict(st Stats, parties int) time.Duration {
	perParty := float64(st.Bytes) / float64(parties)
	return time.Duration(float64(st.Rounds)*float64(m.Latency) + perParty/m.Bandwidth*float64(time.Second))
}

// Params configures an Engine.
type Params struct {
	Parties int
	Mode    Mode
	Seed    uint64 // deterministic randomness for dealer and parties

	// RoundTimeout bounds how long any party waits for a single frame during
	// a protocol round (protocol mode; 0 = wait forever). With it set, a
	// slow or dead peer turns into a clean wrapped transport.ErrRoundTimeout
	// instead of a goroutine blocked for the life of the process.
	RoundTimeout time.Duration

	// Wrap, when set, wraps every party endpoint the engine creates (root
	// and forks). Chaos tests install transport.FaultConn here to drive the
	// protocols through drops, delays, duplicates, errors and mid-round
	// closes without touching protocol code.
	Wrap func(party int, c transport.Conn) transport.Conn

	// Dial supplies the engine's party endpoints. NewEngine and every Fork
	// call it once to obtain a session-private ConnSet — e.g. multiplexed
	// lanes over a real TCP/mTLS mesh (transport.LocalMesh), so each fork's
	// rounds travel an actual socket. Nil selects a fresh in-process Mem
	// network per engine. A Fork whose dial fails starts pre-poisoned (Fork
	// cannot return an error); callers observe the standard ErrPoisoned
	// fast-fail and open a fresh session.
	Dial func() (ConnSet, error)

	// Instr, when set, mirrors the engine's cost counters into a process-wide
	// metrics registry, shared by the whole fork family. Per-engine Stats
	// stay authoritative for per-query accounting; Instr feeds the /metrics
	// trajectory across all engines.
	Instr *Instruments
}

// ConnSet is one session-private set of party endpoints produced by a
// Params.Dial factory: conns[p] belongs to party p. Drain is ignored; it is
// kept only so benchmark/, which sets it from LocalMesh.SessionConns's
// always-nil second result, compiles.
type ConnSet struct {
	Conns []transport.Conn
	Drain func()
}

// Instruments is the MPC layer's hookup into a metrics registry: global
// monotonic counters aggregated across every engine of a fork family. The
// counter names follow the paper's cost model — compares is the Fed-SAC
// invocation count, rounds and bytes are the R and S of R·(L + S/B).
type Instruments struct {
	Compares   *metrics.Counter
	Rounds     *metrics.Counter
	Bytes      *metrics.Counter
	Messages   *metrics.Counter
	Poisonings *metrics.Counter
	Forks      *metrics.Counter
}

// NewInstruments registers (or rebinds, idempotently) the MPC counter set on
// a registry.
func NewInstruments(reg *metrics.Registry) *Instruments {
	return &Instruments{
		Compares:   reg.Counter("fedroad_mpc_compares_total", "Fed-SAC secure comparisons executed", nil),
		Rounds:     reg.Counter("fedroad_mpc_rounds_total", "MPC communication rounds (R in the paper's R·(L+S/B) cost model)", nil),
		Bytes:      reg.Counter("fedroad_mpc_bytes_total", "MPC wire bytes across all silos (S, summed over rounds)", nil),
		Messages:   reg.Counter("fedroad_mpc_messages_total", "MPC wire messages across all silos", nil),
		Poisonings: reg.Counter("fedroad_mpc_poisonings_total", "engines disabled by unrecoverable transport failures", nil),
		Forks:      reg.Counter("fedroad_mpc_engine_forks_total", "per-session engine forks created", nil),
	}
}

// record mirrors one comparison run's cost into the registry counters.
func (in *Instruments) record(compares, rounds, bytes, msgs int64) {
	if in == nil {
		return
	}
	in.Compares.Add(float64(compares))
	in.Rounds.Add(float64(rounds))
	in.Bytes.Add(float64(bytes))
	in.Messages.Add(float64(msgs))
}

// Stats aggregates the cost of all comparisons executed by an engine.
type Stats struct {
	Compares int64 // secure comparisons executed
	Rounds   int64 // communication rounds, summed over comparisons
	Bytes    int64 // wire bytes, summed over all parties
	Messages int64 // wire messages, summed over all parties
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Compares += other.Compares
	s.Rounds += other.Rounds
	s.Bytes += other.Bytes
	s.Messages += other.Messages
}

// Sub returns s minus other.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Compares: s.Compares - other.Compares,
		Rounds:   s.Rounds - other.Rounds,
		Bytes:    s.Bytes - other.Bytes,
		Messages: s.Messages - other.Messages,
	}
}

// Engine executes secure comparisons for a fixed set of parties. It is the
// concrete carrier of the Fed-SAC operator: the federation layer feeds it
// per-silo cost differences and receives only the joint comparison bit.
//
// An Engine is not safe for concurrent use, but independent engines run
// concurrently: Fork gives each in-flight query its own engine instance
// (own transport lanes, dealer stream, party randomness and stat counters)
// sharing only its root's immutable configuration.
type Engine struct {
	n      int
	mode   Mode
	key    [32]byte // the root's dealer key, from which each fork's derives
	dealer *Dealer
	conns  []transport.Conn
	stats  Stats

	// dial is the endpoint factory (see Params.Dial), inherited by forks.
	dial func() (ConnSet, error)

	// roundTimeout and wrap carry the failure policy (see Params); inherited
	// by forks.
	roundTimeout time.Duration
	wrap         func(party int, c transport.Conn) transport.Conn

	// poisoned is set after an unrecoverable transport failure: the engine's
	// streams may be desynchronized, so every later comparison fails fast
	// with ErrPoisoned instead of risking a silently wrong bit.
	poisoned bool

	// instr, when set, mirrors cost counters into a shared metrics registry;
	// inherited by forks (nil-safe: all methods accept a nil receiver).
	instr *Instruments

	// forkCtr hands out distinct randomness streams to forks; shared by the
	// whole fork family.
	forkCtr *atomic.Uint64

	// deals is the slab every instance deals its blocks into, [word][party];
	// it grows a word at a time to the widest batch, so growing never copies
	// or drops a word, and is redealt in place, every field overwritten.
	deals [][]TupleBlock
}

// NewEngine creates an engine. Wire costs are computed analytically (the
// protocol is data-oblivious), so construction performs no protocol run.
func NewEngine(p Params) (*Engine, error) {
	if p.Parties < 2 {
		return nil, fmt.Errorf("mpc: need at least 2 parties, got %d", p.Parties)
	}
	if p.Dial == nil {
		p.Dial = memDial(p.Parties)
	}
	key := seedKey(p.Seed)
	e := &Engine{
		n: p.Parties, mode: p.Mode, key: key,
		dealer:       newDealer(p.Parties, key),
		forkCtr:      new(atomic.Uint64),
		roundTimeout: p.RoundTimeout,
		wrap:         p.Wrap,
		dial:         p.Dial,
		instr:        p.Instr,
	}
	if err := e.installConns(); err != nil {
		return nil, err
	}
	return e, nil
}

// memDial is the default endpoint factory: a fresh in-process network per
// engine.
func memDial(n int) func() (ConnSet, error) {
	return func() (ConnSet, error) {
		mem := transport.NewMem(n)
		conns := make([]transport.Conn, n)
		for p := range conns {
			conns[p] = mem.Conn(p)
		}
		return ConnSet{Conns: conns}, nil
	}
}

// Fork returns an independent engine over the same parties and network
// model: fresh transport lanes, a fresh dealer stream and zeroed stats. A
// fork's randomness depends only on the root's seed and its fork number
// (see forkKey). Forks may run concurrently with each other and with their
// root; each individual engine remains single-goroutine.
func (e *Engine) Fork() *Engine {
	f := &Engine{
		n: e.n, mode: e.mode, key: e.key,
		dealer:       newDealer(e.n, forkKey(e.key, e.forkCtr.Add(1))),
		forkCtr:      e.forkCtr,
		instr:        e.instr,
		roundTimeout: e.roundTimeout,
		wrap:         e.wrap,
		dial:         e.dial,
	}
	if e.instr != nil {
		e.instr.Forks.Inc()
	}
	if err := f.installConns(); err != nil {
		// Fork cannot return an error; a fork whose dial failed (e.g. its
		// mesh links are down mid-redial) starts poisoned and fails every
		// comparison fast — its caller opens a fresh session.
		f.poisoned = true
		if f.instr != nil {
			f.instr.Poisonings.Inc()
		}
	}
	return f
}

// installConns dials the engine's party endpoints, bounds their Recvs by the
// round timeout and applies the transport wrapper.
func (e *Engine) installConns() error {
	cs, err := e.dial()
	if err != nil {
		return fmt.Errorf("mpc: dial party endpoints: %w", err)
	}
	if len(cs.Conns) != e.n {
		return fmt.Errorf("mpc: dial returned %d conns for %d parties", len(cs.Conns), e.n)
	}
	e.conns = make([]transport.Conn, e.n)
	for i, c := range cs.Conns {
		if rt, ok := c.(interface{ SetRoundTimeout(time.Duration) }); ok {
			rt.SetRoundTimeout(e.roundTimeout)
		}
		e.conns[i] = e.wrapConn(i, c)
	}
	return nil
}

// wrapConn applies the configured transport wrapper (fault injection), if any.
func (e *Engine) wrapConn(party int, c transport.Conn) transport.Conn {
	if e.wrap == nil {
		return c
	}
	return e.wrap(party, c)
}

// Poisoned reports whether the engine has been disabled by an unrecoverable
// transport failure. A poisoned engine fails every comparison fast with
// ErrPoisoned; its owner should close it and fork a fresh one from the root.
func (e *Engine) Poisoned() bool { return e.poisoned }

// Close releases the engine's transport endpoints. Optional: an
// unclosed engine is reclaimed by the garbage collector.
func (e *Engine) Close() {
	for _, c := range e.conns {
		c.Close()
	}
}

// N returns the number of parties.
func (e *Engine) N() int { return e.n }

// Mode returns the execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// batchWireCost is the analytic wire cost of one k-batch comparison among n
// parties: exact payload bytes and message count as transport.Mem would
// account them (every byte counted once, at its sender). The protocol is
// data-oblivious, so the cost is a pure function of (n, k) — the frame
// layout of RunCompareBatchParty restated:
//
//	masked open   n(n−1) frames of 6k bytes
//	carry level   n(n−1) frames of ⌈14k/8⌉ bytes (level 2)
//	result open   n(n−1) frames of ⌈k/8⌉ bytes
//
// Both execution modes account with it, and TestBatchWireCostMatchesMeasured
// pins it to measured transport stats. Each term is subadditive in k, so a
// k-batch never costs more bytes — and for k > 1 always fewer rounds and
// messages — than the same comparisons run singly.
func batchWireCost(n, k int) (bytes, msgs int64) {
	if k == 0 {
		return 0, 0
	}
	per := openBytes*k + streamBytes(k) // masked open + result open
	for _, level := range circuit[1:] {
		per += streamBytes(openedWires(level) * k)
	}
	pairs := int64(n) * int64(n-1)
	return pairs * int64(per), pairs * int64(RoundsPerCompare)
}

// Compare decides whether Σ diffs < 0, where diffs[p] is party p's private
// difference a_p − b_p. In terms of Fed-SAC: it returns [Σ a_p] < [Σ b_p],
// revealing only that bit. It is CompareBatch of one, magnitude check
// included.
func (e *Engine) Compare(diffs []int64) (bool, error) {
	out, err := e.CompareBatch([][]int64{diffs})
	return err == nil && out[0], err
}

// CompareBatch decides, for each instance i, whether Σ_p diffs[i][p] < 0 —
// k secure comparisons in a single RoundsPerCompare-round protocol run.
// Every |diffs[i][p]| must stay below MaxMagnitude/n, or the whole batch is
// refused with ErrMagnitude. Wire costs are accounted analytically via
// batchWireCost in both modes.
func (e *Engine) CompareBatch(diffs [][]int64) ([]bool, error) {
	k := len(diffs)
	if k == 0 {
		return nil, nil
	}
	limit := MaxMagnitude / int64(e.n)
	for i, d := range diffs {
		if len(d) != e.n {
			return nil, fmt.Errorf("mpc: instance %d has %d inputs for %d parties", i, len(d), e.n)
		}
		for p, v := range d {
			if v >= limit || v <= -limit {
				return nil, fmt.Errorf("%w: instance %d, party %d: need |diff| < %d", ErrMagnitude, i, p, limit)
			}
		}
	}
	var out []bool
	switch e.mode {
	case ModeIdeal:
		out = make([]bool, k)
		for i, d := range diffs {
			var sum int64
			for _, v := range d {
				sum += v
			}
			out[i] = sum < 0
		}
	case ModeProtocol:
		var err error
		out, err = e.runProtocol(diffs)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("mpc: unknown mode %d", e.mode)
	}
	bytes, msgs := batchWireCost(e.n, k)
	e.stats.Compares += int64(k)
	e.stats.Rounds += int64(RoundsPerCompare)
	e.stats.Bytes += bytes
	e.stats.Messages += msgs
	e.instr.record(int64(k), int64(RoundsPerCompare), bytes, msgs)
	return out, nil
}

// runProtocol executes one batched comparison, once: any failure poisons the
// engine, whose party streams may be desynchronized mid-round, so that no
// later comparison can open garbage as a bit. The failed comparison's caller
// discards the engine (a session dies with its request) and the next request
// runs on a fresh fork.
func (e *Engine) runProtocol(diffs [][]int64) ([]bool, error) {
	if e.poisoned {
		return nil, ErrPoisoned
	}
	out, err := e.runProtocolOnce(diffs)
	if err != nil {
		e.poisoned = true
		if e.instr != nil {
			e.instr.Poisonings.Inc()
		}
		return nil, fmt.Errorf("%w: %w", ErrPoisoned, err)
	}
	return out, nil
}

// runProtocolOnce executes one batched comparison across party goroutines,
// each batch word on a fresh deal from the engine's dealer.
func (e *Engine) runProtocolOnce(diffs [][]int64) ([]bool, error) {
	k, W := len(diffs), wordsFor(len(diffs))
	for len(e.deals) < W {
		e.deals = append(e.deals, make([]TupleBlock, e.n))
	}
	for _, deal := range e.deals[:W] {
		e.dealer.deal(deal)
	}
	results := make([][]bool, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for p := 0; p < e.n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := make([]int64, k)
			for i := range mine {
				mine[i] = diffs[i][p]
			}
			blocks := make([]*TupleBlock, W)
			for w := range blocks {
				blocks[w] = &e.deals[w][p]
			}
			results[p], errs[p] = RunCompareBatchParty(e.conns[p], mine, blocks)
		}(p)
	}
	wg.Wait()
	// The run fails with its first party's error — unless an endpoint was
	// closed: that is the cause, while the peers starved by it only report
	// timeouts.
	failed := -1
	for p, err := range errs {
		if err != nil && (failed < 0 || errors.Is(err, transport.ErrClosed)) {
			failed = p
		}
	}
	if failed >= 0 {
		return nil, fmt.Errorf("mpc: party %d: %w", failed, errs[failed])
	}
	for p := 1; p < e.n; p++ {
		for i := 0; i < k; i++ {
			if results[p][i] != results[0][i] {
				return nil, fmt.Errorf("mpc: parties disagree on batch instance %d", i)
			}
		}
	}
	return results[0], nil
}

// Stats returns the accumulated cost counters.
func (e *Engine) Stats() Stats { return e.stats }
