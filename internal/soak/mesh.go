// Package soak is the cross-process mesh chaos harness behind cmd/fedmesh.
// RunMeshChaos spawns one OS process per silo (the fedmesh binary
// re-executing itself), connects them into a resilient multiplexed
// TCP mesh — mTLS when configured — and drives a stream of federated
// shortest-path queries while links are broken mid-round and one silo is
// killed and restarted. Every query must either return a route that
// scenario.History.Check accepts or fail with a typed transport error; hangs
// are caught by a hard wall-clock deadline, and the coordinator's mesh
// counters must show at least one automatic reconnection.
//
// Each silo process runs the production route search — the one a flat
// fedroad session runs: TM-tree, Fed-AMPS, lockstep-batched Fed-SAC — with
// replicated control flow: every party replays the search, and each runs its
// own side of every Fed-SAC instance, through mpc.RunCompareBatchParty over a
// per-query mux lane, inside a fed.WithDecide view (partyQuery). Every
// process derives every silo's weights, so it also holds each opened bit to
// the ideal decision. The per-query dealer is re-seeded from Seed⊕query, so a
// silo process restarted mid-run regenerates exactly the correlated
// randomness its peers hold.
package soak

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	fedroad "repro"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// Mesh lane allocation. Lane 0 is the mux control lane; lane 1 carries the
// query rendezvous (BEGIN/ACK/END); query q runs its MPC rounds on lane
// 16+q, fresh per query so an aborted attempt can never feed stale frames
// into a later one.
const (
	laneRendezvous uint32 = 1
	queryLaneBase  uint32 = 16
	endQuery       uint32 = ^uint32(0)
)

// MeshPartyConfig configures one silo process of the chaos mesh.
type MeshPartyConfig struct {
	Party    int
	Silos    int
	Addrs    []string // addrs[i] = silo i's mesh listen address
	CertDir  string   // throwaway PKI dir ("" = plaintext links)
	Seed     uint64
	Vertices int
	Queries  int // coordinator only: queries to drive

	RoundTimeout time.Duration // per-lane MPC round bound
	Heartbeat    time.Duration // mesh liveness ping interval
	ChaosBreak   time.Duration // self-inject a random link break this often (0 = off)
	IdleExit     time.Duration // follower exits after this long without a BEGIN

	Out io.Writer // result stream (JSON lines); coordinator's goes to the driver
	Log io.Writer // human progress log
}

func (c MeshPartyConfig) withDefaults() MeshPartyConfig {
	if c.Vertices == 0 {
		c.Vertices = 24
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	// 1s comfortably bounds a 4-round loopback compare (normally <5ms) and
	// caps the dead time when a break between two OTHER silos aborts them
	// mid-round: this party's Recv then has nothing coming and must wait the
	// full round timeout before failing the query typed.
	if c.RoundTimeout == 0 {
		c.RoundTimeout = time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.IdleExit == 0 {
		c.IdleExit = 30 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// MeshQueryResult is one query outcome emitted by the coordinator, one JSON
// line each. ErrKind is the typed-failure classification; an empty ErrKind
// with a non-empty Err is an untyped failure and counts as a violation.
type MeshQueryResult struct {
	Q        int            `json:"q"`
	Src      int            `json:"src"`
	Dst      int            `json:"dst"`
	Found    bool           `json:"found"`
	Path     []graph.Vertex `json:"path,omitempty"`
	Partials []int64        `json:"partials,omitempty"`
	Settled  int            `json:"settled"`
	Err      string         `json:"err,omitempty"`
	ErrKind  string         `json:"err_kind,omitempty"`
}

// meshRunSummary is the final JSON line each party emits: its mesh counters.
type meshRunSummary struct {
	Done    bool                `json:"done"`
	Party   int                 `json:"party"`
	Queries int                 `json:"queries"`
	Stats   transport.MeshStats `json:"stats"`
}

// classifyMeshErr maps a query failure onto the typed taxonomy. "untyped"
// marks an error outside the closed set — protocol desync, an opened bit that
// is not the ideal decision — which the chaos driver treats as a correctness
// violation.
func classifyMeshErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, transport.ErrPeerDown):
		return "peer_down"
	case transport.IsTimeout(err):
		return "timeout"
	case errors.Is(err, transport.ErrLaneClosed):
		return "lane_closed"
	case errors.Is(err, errRendezvous):
		return "rendezvous"
	}
	return "untyped"
}

// errRendezvous marks a query that never got all silos to the starting line
// (a peer was down or had already burned its attempt). Typed and expected
// under chaos.
var errRendezvous = errors.New("soak: query rendezvous failed")

// meshParty is one silo's runtime state.
type meshParty struct {
	cfg  MeshPartyConfig
	mesh *transport.Mesh
	rdv  *transport.LaneConn
	f    *fed.Federation
}

// RunMeshParty runs one silo process of the chaos mesh until the query
// stream ends (or, for followers, the coordinator goes silent past
// IdleExit). It always emits a final summary line with the mesh counters.
func RunMeshParty(cfg MeshPartyConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Silos < 2 || cfg.Party < 0 || cfg.Party >= cfg.Silos {
		return fmt.Errorf("soak: party %d of %d silos out of range", cfg.Party, cfg.Silos)
	}
	if len(cfg.Addrs) != cfg.Silos {
		return fmt.Errorf("soak: %d addrs for %d silos", len(cfg.Addrs), cfg.Silos)
	}

	// Every process derives the identical federation deterministically; only
	// silosW[Party] is "its" private data, the one column it feeds to Fed-SAC.
	g, w0 := fedroad.GenerateRoadNetwork(cfg.Vertices, cfg.Seed)
	silosW := fedroad.SimulateCongestion(w0, cfg.Silos, fedroad.Moderate, cfg.Seed+1)
	f, err := fed.New(g, w0, silosW, mpc.Params{})
	if err != nil {
		return fmt.Errorf("soak: party %d federation: %w", cfg.Party, err)
	}

	opts := transport.MeshOptions{Heartbeat: cfg.Heartbeat}
	if cfg.CertDir != "" {
		opts.TLS = transport.TestCertConfig(cfg.CertDir, cfg.Party)
	}
	mesh, err := transport.DialMeshMux(cfg.Party, cfg.Silos, cfg.Addrs, opts)
	if err != nil {
		return fmt.Errorf("soak: party %d mesh: %w", cfg.Party, err)
	}
	defer mesh.Close()
	fmt.Fprintf(cfg.Log, "party %d: mesh up (%d silos, tls=%v)\n", cfg.Party, cfg.Silos, opts.TLS.Enabled())

	// Self-injected link breaks: mid-round disconnects the redial machinery
	// must absorb. Deterministic per (seed, party).
	if cfg.ChaosBreak > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cfg.Party)+0xc4a05))
			t := time.NewTicker(cfg.ChaosBreak)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					peer := rng.IntN(cfg.Silos)
					if peer != cfg.Party {
						mesh.BreakLink(peer)
					}
				}
			}
		}()
	}

	p := &meshParty{cfg: cfg, mesh: mesh, f: f}
	p.rdv = mesh.Lane(laneRendezvous)
	p.rdv.SetRoundTimeout(200 * time.Millisecond) // rendezvous loops poll past link flaps
	var queries int
	if cfg.Party == 0 {
		queries, err = p.coordinate()
	} else {
		queries, err = p.follow()
	}

	sum := meshRunSummary{Done: true, Party: cfg.Party, Queries: queries, Stats: mesh.Stats()}
	if b, merr := json.Marshal(sum); merr == nil {
		fmt.Fprintf(cfg.Out, "%s\n", b)
	}
	return err
}

// encodeBegin packs a BEGIN frame: query number, source, target.
func encodeBegin(q uint32, src, dst fedroad.Vertex) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], q)
	binary.LittleEndian.PutUint32(b[4:], uint32(src))
	binary.LittleEndian.PutUint32(b[8:], uint32(dst))
	return b
}

// coordinate drives the query stream from silo 0: per query, a reliable
// BEGIN/ACK rendezvous (retried across link flaps until a deadline), then
// the route search on the query's own lane, then one result line.
func (p *meshParty) coordinate() (int, error) {
	nV := p.f.Graph().NumVertices()
	rng := rand.New(rand.NewPCG(p.cfg.Seed+17, 0))
	rdvBudget := 4 * p.cfg.RoundTimeout
	if rdvBudget < 8*time.Second {
		rdvBudget = 8 * time.Second
	}
	enc := json.NewEncoder(p.cfg.Out)
	for q := 0; q < p.cfg.Queries; q++ {
		src := fedroad.Vertex(rng.IntN(nV))
		dst := fedroad.Vertex(rng.IntN(nV))
		res := MeshQueryResult{Q: q, Src: int(src), Dst: int(dst)}
		if err := p.rendezvous(uint32(q), src, dst, time.Now().Add(rdvBudget)); err != nil {
			res.Err, res.ErrKind = err.Error(), classifyMeshErr(err)
		} else {
			route, stats, err := p.runQuery(uint32(q), src, dst)
			if err != nil {
				res.Err, res.ErrKind = err.Error(), classifyMeshErr(err)
			} else {
				res.Found, res.Path, res.Partials, res.Settled = route.Found, route.Path, route.Partial, stats.SettledVertices
			}
		}
		if err := enc.Encode(res); err != nil {
			return q, fmt.Errorf("soak: emit result: %w", err)
		}
	}
	p.broadcastEnd()
	return p.cfg.Queries, nil
}

// rendezvous gets every follower to the starting line of query q. BEGIN
// sends are retried across down links until the deadline; ACKs carry the
// query number (stale ones are discarded) and an accept flag — a follower
// that already burned its attempt on q NACKs, failing the query typed.
func (p *meshParty) rendezvous(q uint32, src, dst fedroad.Vertex, deadline time.Time) error {
	begin := encodeBegin(q, src, dst)
	for peer := 1; peer < p.cfg.Silos; peer++ {
		for {
			err := p.rdv.Send(peer, begin)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: begin to silo %d: %v", errRendezvous, peer, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	for peer := 1; peer < p.cfg.Silos; peer++ {
		for {
			msg, err := p.rdv.Recv(peer)
			if err != nil {
				if time.Now().After(deadline) {
					return fmt.Errorf("%w: ack from silo %d: %v", errRendezvous, peer, err)
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if len(msg) < 5 {
				return fmt.Errorf("%w: malformed ack from silo %d", errRendezvous, peer)
			}
			aq := binary.LittleEndian.Uint32(msg)
			if aq != q {
				continue // stale ack of an earlier, already-failed query
			}
			if msg[4] == 0 {
				return fmt.Errorf("%w: silo %d already attempted query %d", errRendezvous, peer, q)
			}
			break
		}
	}
	return nil
}

// broadcastEnd tells the followers the stream is over; best-effort with a
// short retry window (a follower that misses it exits on IdleExit).
func (p *meshParty) broadcastEnd() {
	end := encodeBegin(endQuery, 0, 0)
	deadline := time.Now().Add(2 * time.Second)
	for peer := 1; peer < p.cfg.Silos; peer++ {
		for p.rdv.Send(peer, end) != nil && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// follow is the follower loop: wait for BEGIN, ACK, run the query, repeat.
// A follower never re-runs a query number — a duplicate BEGIN (its first
// ACK was lost to a link flap) is NACKed, because the first attempt may
// already have put frames on the query lane.
func (p *meshParty) follow() (int, error) {
	lastQ := -1
	ran := 0
	idle := time.Now()
	for {
		msg, err := p.rdv.Recv(0)
		if err != nil {
			if time.Since(idle) > p.cfg.IdleExit {
				return ran, fmt.Errorf("soak: party %d: no BEGIN for %v, assuming coordinator gone", p.cfg.Party, p.cfg.IdleExit)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		idle = time.Now()
		if len(msg) < 12 {
			continue
		}
		q := binary.LittleEndian.Uint32(msg)
		if q == endQuery {
			return ran, nil
		}
		src := fedroad.Vertex(binary.LittleEndian.Uint32(msg[4:]))
		dst := fedroad.Vertex(binary.LittleEndian.Uint32(msg[8:]))
		ack := []byte{0, 0, 0, 0, 1}
		binary.LittleEndian.PutUint32(ack, q)
		if int(q) <= lastQ {
			ack[4] = 0 // duplicate: refuse, the lane may hold attempt-one frames
			p.rdv.Send(0, ack)
			continue
		}
		lastQ = int(q)
		if p.rdv.Send(0, ack) != nil {
			continue // coordinator will time the rendezvous out
		}
		if _, _, err := p.runQuery(q, src, dst); err != nil {
			fmt.Fprintf(p.cfg.Log, "party %d: query %d failed: %v\n", p.cfg.Party, q, err)
		}
		ran++
	}
}

// runQuery runs this party's side of query q on the query's own lane. The
// per-query dealer is re-seeded from Seed⊕q: every party regenerates the same
// correlated randomness and keeps its own blocks, so a restarted process is
// instantly back in sync — no offline state survives a crash.
func (p *meshParty) runQuery(q uint32, src, dst graph.Vertex) (core.PathResult, core.QueryStats, error) {
	lane := p.mesh.Lane(queryLaneBase + q)
	lane.SetRoundTimeout(p.cfg.RoundTimeout)
	defer lane.Close()
	dealer := mpc.NewDealer(p.cfg.Silos, p.cfg.Seed^(0x6d657368+uint64(q)*0x9e3779b97f4a7c15))
	res, stats, _, err := partyQuery(p.f, lane, dealer, src, dst)
	return res, stats, err
}

// partyQuery runs conn's party's side of the route src→dst: the search a flat
// fedroad session runs (core.RouteOptions without an index: TM-tree,
// Fed-AMPS, lockstep-batched Fed-SAC) on a view of f whose every Fed-SAC
// instance of k comparisons runs this party's column of the diffs through
// mpc.RunCompareBatchParty over conn, on block [party] of ⌈k/64⌉ deals of
// dealer. Control flow depends only on opened bits, so every party replays
// the same search and the same instances.
//
// The process holds every silo's weights, so it also holds each opened bit to
// the ideal decision on the full diffs; a disagreement fails the query with an
// untyped error. widths lists the instances' widths in order.
func partyQuery(f *fed.Federation, conn transport.Conn, dealer *mpc.Dealer, src, dst graph.Vertex) (res core.PathResult, stats core.QueryStats, widths []int, err error) {
	me := conn.Party()
	view := f.WithDecide(func(fed.Decide) fed.Decide {
		return func(diffs [][]int64) ([]bool, error) {
			widths = append(widths, len(diffs))
			mine := make([]int64, len(diffs))
			for i, d := range diffs {
				mine[i] = d[me]
			}
			blocks := make([]*mpc.TupleBlock, (len(diffs)+63)/64)
			for w := range blocks {
				blocks[w] = &dealer.CmpTuples()[me]
			}
			bits, err := mpc.RunCompareBatchParty(conn, mine, blocks)
			if err != nil {
				return nil, err
			}
			for i, d := range diffs {
				var sum int64
				for _, x := range d {
					sum += x
				}
				if bits[i] != (sum < 0) {
					return nil, fmt.Errorf("soak: party %d opened %v for instance %d of %d, whose diffs sum to %d", me, bits[i], i, len(diffs), sum)
				}
			}
			return bits, nil
		}
	})
	e, err := core.NewEngine(view, core.RouteOptions(nil, true))
	if err != nil {
		return res, stats, nil, err
	}
	res, stats, err = e.SPSP(src, dst)
	return res, stats, widths, err
}

// ---------------------------------------------------------------------------
// Driver side: spawn, kill, restart, verify.

// MeshChaosConfig sizes the cross-process chaos run. Bin is the fedmesh
// binary (usually the driver's own executable, re-exec'd in -party mode).
type MeshChaosConfig struct {
	Bin      string
	Silos    int
	Queries  int
	Vertices int
	Seed     uint64
	WorkDir  string // logs + throwaway certs; temp dir when empty
	TLS      bool   // mTLS on every link (throwaway in-run PKI)
	Kill     bool   // kill + restart the highest silo once, mid-run
	// ChaosBreak is the per-silo self-injected link-break interval.
	ChaosBreak   time.Duration
	RoundTimeout time.Duration
	Heartbeat    time.Duration
	Timeout      time.Duration // hard wall-clock bound; exceeding it is a hang
	Log          io.Writer
}

func (c MeshChaosConfig) withDefaults() MeshChaosConfig {
	if c.Silos == 0 {
		c.Silos = 3
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	if c.Vertices == 0 {
		c.Vertices = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	// Break links often enough that a meaningful share of queries race a
	// redial, but not so often that third-party round timeouts (see
	// MeshPartyConfig.RoundTimeout) dominate wall time and starve the run.
	if c.ChaosBreak == 0 {
		c.ChaosBreak = 400 * time.Millisecond
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// MeshChaosReport is the verified outcome of a chaos run.
type MeshChaosReport struct {
	Silos         int            `json:"silos"`
	Queries       int            `json:"queries"`
	Results       int            `json:"results"`
	Succeeded     int            `json:"succeeded"`
	Unreachable   int            `json:"unreachable"`
	FailedTyped   int            `json:"failed_typed"`
	FailedUntyped int            `json:"failed_untyped"`
	Incorrect     int            `json:"incorrect"`
	FailureKinds  map[string]int `json:"failure_kinds,omitempty"`
	Kills         int            `json:"kills"`
	Restarts      int            `json:"restarts"`
	Reconnects    int64          `json:"reconnects"`
	HeartbeatMiss int64          `json:"heartbeat_misses"`
	WallMs        int64          `json:"wall_ms"`
}

// Violations summarizes why a run is unacceptable ("" = clean): incorrect
// results, untyped failures, a short result stream, or zero observed
// reconnections.
func (r *MeshChaosReport) Violations() string {
	var v []string
	if r.Incorrect > 0 {
		v = append(v, fmt.Sprintf("%d incorrect results", r.Incorrect))
	}
	if r.FailedUntyped > 0 {
		v = append(v, fmt.Sprintf("%d untyped failures", r.FailedUntyped))
	}
	if r.Results < r.Queries {
		v = append(v, fmt.Sprintf("only %d/%d results (coordinator died early)", r.Results, r.Queries))
	}
	if r.Reconnects == 0 {
		v = append(v, "no automatic reconnection observed")
	}
	return strings.Join(v, "; ")
}

// reserveAddrs picks a loopback port per silo by bind-and-release. The
// window between release and the silo process binding is the usual
// ephemeral-port race; acceptable for a test harness.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// meshProcs tracks the silo processes across kill/restart.
type meshProcs struct {
	mu    sync.Mutex
	cmds  []*exec.Cmd
	files []*os.File
}

func (mp *meshProcs) set(i int, c *exec.Cmd) {
	mp.mu.Lock()
	mp.cmds[i] = c
	mp.mu.Unlock()
}

// killAll force-kills every live silo process and closes the log files.
func (mp *meshProcs) killAll() {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	for _, c := range mp.cmds {
		if c != nil && c.Process != nil {
			c.Process.Kill()
			c.Wait()
		}
	}
	for _, f := range mp.files {
		if f != nil {
			f.Close()
		}
	}
}

// RunMeshChaos executes the full cross-process chaos scenario and verifies
// every emitted result against plaintext Dijkstra on the joint weights. The
// returned report is valid even when err != nil describes a violation;
// operational failures (spawn, certs) return a nil report.
func RunMeshChaos(cfg MeshChaosConfig) (*MeshChaosReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Bin == "" {
		return nil, fmt.Errorf("soak: mesh chaos needs the fedmesh binary path")
	}
	if cfg.Silos < 3 {
		return nil, fmt.Errorf("soak: mesh chaos needs at least 3 silos")
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		d, err := os.MkdirTemp("", "fedmesh-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		workDir = d
	}
	certDir := ""
	if cfg.TLS {
		certDir = filepath.Join(workDir, "certs")
		if err := os.MkdirAll(certDir, 0o700); err != nil {
			return nil, err
		}
		if err := transport.GenerateTestCerts(certDir, cfg.Silos); err != nil {
			return nil, err
		}
	}
	addrs, err := reserveAddrs(cfg.Silos)
	if err != nil {
		return nil, err
	}

	// The oracle: every answer is checked at the run's one traffic version.
	g, w0 := fedroad.GenerateRoadNetwork(cfg.Vertices, cfg.Seed)
	silosW := fedroad.SimulateCongestion(w0, cfg.Silos, fedroad.Moderate, cfg.Seed+1)
	h := scenario.NewHistory(g, silosW, func() uint64 { return 0 })

	procs := &meshProcs{cmds: make([]*exec.Cmd, cfg.Silos), files: make([]*os.File, cfg.Silos)}
	defer procs.killAll()
	spawn := func(party int) (io.ReadCloser, error) {
		args := []string{
			"-party", strconv.Itoa(party),
			"-silos", strconv.Itoa(cfg.Silos),
			"-addrs", strings.Join(addrs, ","),
			"-seed", strconv.FormatUint(cfg.Seed, 10),
			"-queries", strconv.Itoa(cfg.Queries),
			"-vertices", strconv.Itoa(cfg.Vertices),
			"-round-timeout", cfg.RoundTimeout.String(),
			"-heartbeat", cfg.Heartbeat.String(),
			"-chaos-break", cfg.ChaosBreak.String(),
		}
		if certDir != "" {
			args = append(args, "-cert-dir", certDir)
		}
		cmd := exec.Command(cfg.Bin, args...)
		lf := procs.files[party]
		if lf == nil {
			lf, err = os.Create(filepath.Join(workDir, fmt.Sprintf("silo%d.log", party)))
			if err != nil {
				return nil, err
			}
			procs.files[party] = lf
		}
		cmd.Stderr = lf
		var out io.ReadCloser
		if party == 0 {
			out, err = cmd.StdoutPipe()
			if err != nil {
				return nil, err
			}
		} else {
			cmd.Stdout = lf
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		procs.set(party, cmd)
		return out, nil
	}

	start := time.Now()
	deadline := time.After(cfg.Timeout)
	var coordOut io.ReadCloser
	for party := cfg.Silos - 1; party >= 0; party-- {
		out, serr := spawn(party)
		if serr != nil {
			return nil, fmt.Errorf("soak: spawn silo %d: %w", party, serr)
		}
		if party == 0 {
			coordOut = out
		}
	}
	fmt.Fprintf(cfg.Log, "chaos: %d silo processes up (tls=%v), %d queries, kill=%v\n",
		cfg.Silos, cfg.TLS, cfg.Queries, cfg.Kill)

	// Stream the coordinator's result lines with the hang deadline armed.
	lines := make(chan string, 64)
	readErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(coordOut)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		readErr <- sc.Err()
		close(lines)
	}()

	rep := &MeshChaosReport{Silos: cfg.Silos, Queries: cfg.Queries, FailureKinds: map[string]int{}}
	victim := cfg.Silos - 1 // highest silo: pure dialer, so its restart re-binds no port
	killAt := cfg.Queries / 3
	killed := false
	var summary *meshRunSummary
stream:
	for {
		select {
		case <-deadline:
			rep.WallMs = time.Since(start).Milliseconds()
			return rep, fmt.Errorf("soak: chaos run exceeded %v — hang (logs in %s)", cfg.Timeout, workDir)
		case line, ok := <-lines:
			if !ok {
				break stream
			}
			if strings.Contains(line, `"done"`) {
				var s meshRunSummary
				if json.Unmarshal([]byte(line), &s) == nil && s.Done {
					summary = &s
				}
				continue
			}
			var res MeshQueryResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				continue
			}
			rep.Results++
			if err := verifyMeshResult(rep, h, res); err != nil {
				fmt.Fprintf(cfg.Log, "chaos: query %d: %v\n", res.Q, err)
			}
			if cfg.Kill && !killed && rep.Results >= killAt {
				killed = true
				rep.Kills++
				procs.mu.Lock()
				vc := procs.cmds[victim]
				procs.mu.Unlock()
				if vc != nil && vc.Process != nil {
					fmt.Fprintf(cfg.Log, "chaos: killing silo %d after %d results\n", victim, rep.Results)
					vc.Process.Kill()
					vc.Wait()
				}
				// Synchronous restart after a dead window: the coordinator keeps
				// failing queries typed meanwhile; its result lines buffer in
				// the pipe.
				time.Sleep(400 * time.Millisecond)
				if _, rerr := spawn(victim); rerr == nil {
					rep.Restarts++
					fmt.Fprintf(cfg.Log, "chaos: restarted silo %d\n", victim)
				} else {
					fmt.Fprintf(cfg.Log, "chaos: restart of silo %d failed: %v\n", victim, rerr)
				}
			}
		}
	}
	<-readErr
	procs.mu.Lock()
	coord := procs.cmds[0]
	procs.mu.Unlock()
	if coord != nil {
		coord.Wait()
	}

	rep.WallMs = time.Since(start).Milliseconds()
	if summary != nil {
		rep.Reconnects = summary.Stats.Reconnects
		rep.HeartbeatMiss = summary.Stats.HeartbeatMisses
	}
	fmt.Fprintf(cfg.Log, "chaos: %d results (%d ok, %d unreachable, %d typed failures %v), %d reconnects, %dms\n",
		rep.Results, rep.Succeeded, rep.Unreachable, rep.FailedTyped, rep.FailureKinds, rep.Reconnects, rep.WallMs)
	if v := rep.Violations(); v != "" {
		return rep, fmt.Errorf("soak: chaos violations: %s (logs in %s)", v, workDir)
	}
	return rep, nil
}

// verifyMeshResult scores one coordinator result line against the oracle and
// returns why an answer is incorrect or its failure untyped.
func verifyMeshResult(rep *MeshChaosReport, h *scenario.History, res MeshQueryResult) error {
	if res.Err != "" {
		if res.ErrKind == "" || res.ErrKind == "untyped" {
			rep.FailedUntyped++
			return fmt.Errorf("untyped failure: %s", res.Err)
		}
		rep.FailedTyped++
		rep.FailureKinds[res.ErrKind]++
		return nil
	}
	err := h.Check(scenario.Answer{Src: graph.Vertex(res.Src), Dst: graph.Vertex(res.Dst), Found: res.Found, Path: res.Path, Partials: res.Partials})
	if err == nil && res.Found && len(res.Partials) != rep.Silos {
		err = fmt.Errorf("%d→%d: %d partials for %d silos", res.Src, res.Dst, len(res.Partials), rep.Silos)
	}
	switch {
	case err != nil:
		rep.Incorrect++
	case res.Found:
		rep.Succeeded++
	default:
		rep.Unreachable++
	}
	return err
}
