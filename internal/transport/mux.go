package transport

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerDown is returned (wrapped) by lane operations when the physical
// link to the peer is down — declared dead by the heartbeat monitor, torn by
// a socket error, or not yet (re-)established. An in-flight protocol round
// on a dead link cannot be resumed (frames may be lost mid-round), so the
// MPC engine poisons itself fast and the next request opens a fresh session,
// whose lanes transparently use the redialed link.
var ErrPeerDown = errors.New("transport: peer link down")

// ErrLaneClosed is returned by operations on a closed lane.
var ErrLaneClosed = errors.New("transport: lane closed")

// Mux wire format. Every frame is
//
//	[4B lane ID][4B sequence][4B payload length][payload]
//
// on one physical connection per peer pair. Lane 0 is the control lane
// carrying heartbeat pings and pongs; all other lanes are independent
// FIFO-ordered byte-message streams. The sequence number counts frames per
// (lane, direction) within one link generation; a gap or repeat means the
// stream was corrupted (e.g. by a retransmitting middlebox), and the
// receiver kills the link rather than deliver desynchronized protocol
// frames.
const (
	muxHeaderLen = 12
	muxMaxFrame  = 1 << 24
	laneControl  = 0

	hbPing byte = 1
	hbPong byte = 2

	// muxHelloMagic opens every connection: magic, protocol version and the
	// dialer's party ID, so an acceptor can pair (and re-pair, after a
	// reconnect) sockets to parties.
	muxHelloMagic   = 0x4652_4d58 // "FRMX"
	muxHelloVersion = 1
	muxHelloLen     = 12
)

// Mesh constants no caller tunes.
const (
	// heartbeatMisses is the dead-peer threshold in heartbeat intervals: a
	// link with no inbound traffic for Heartbeat×heartbeatMisses is dead.
	heartbeatMisses = 4
	// redialMin is the first backoff between redial attempts after a link
	// dies; it doubles per failed attempt up to redialMax.
	redialMin = 50 * time.Millisecond
	redialMax = 2 * time.Second
	// laneQueue caps buffered inbound frames per lane per peer. A full
	// queue exerts TCP backpressure: the link reader blocks, the peer's
	// socket writes stall, and — if the stall outlives the heartbeat
	// deadline — the link is declared dead and redialed clean.
	laneQueue = 64
)

// MeshOptions tunes a Mesh. The zero value gives production-ish defaults
// suitable for LAN deployments and loopback tests.
type MeshOptions struct {
	// TLS enables mutual-auth TLS on every inter-silo link (nil = plaintext).
	TLS *TLSConfig
	// Heartbeat is the control-ping interval per link; a link with no
	// inbound traffic for 4 heartbeats is declared dead. Default 250ms.
	// Negative disables heartbeats (deterministic tests).
	Heartbeat time.Duration
	// DialTimeout bounds the initial full-mesh establishment (default 10s).
	DialTimeout time.Duration
	// Listener, when set, is used instead of listening on addrs[id]
	// (callers that pre-bind ports to avoid races, e.g. the loopback mesh).
	Listener net.Listener
}

func (o MeshOptions) withDefaults() MeshOptions {
	if o.Heartbeat == 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	return o
}

// muxFrame is one queued inbound payload.
type muxFrame struct {
	data []byte
}

// laneState is one lane's inbound queue on one link, plus the reader-side
// sequence expectation. recvSeq/haveSeq are touched only by the link's
// single reader goroutine; the map holding the struct is guarded by qmu.
type laneState struct {
	q       chan muxFrame
	recvSeq uint32
	haveSeq bool
}

// link is one live physical connection to a peer. A link is immutable once
// installed; reconnection installs a NEW link (next generation) and fails
// the old one, so every lane operation is pinned to the generation it
// observed — an operation never silently migrates mid-round onto a redialed
// socket.
type link struct {
	m    *Mesh
	peer int
	gen  uint64
	conn net.Conn
	rd   *bufio.Reader

	wmu sync.Mutex

	dead     chan struct{}
	deadOnce sync.Once

	qmu         sync.Mutex
	lanes       map[uint32]*laneState
	closedLanes map[uint32]struct{}
	closedFIFO  []uint32
}

// maxTombstones bounds the closed-lane set per link: lanes close mostly in
// allocation order, so a bounded FIFO keeps the common stale-frame window
// covered without unbounded growth on long-lived links.
const maxTombstones = 4096

// maxLanesPerLink bounds concurrently buffered lanes; beyond it the peer is
// misbehaving (or leaking lanes) and the link is killed.
const maxLanesPerLink = 1 << 17

// fail declares the link dead exactly once: the socket closes, every lane
// waiter wakes with ErrPeerDown, and the mesh's redial machinery takes over.
func (l *link) fail() {
	l.deadOnce.Do(func() {
		close(l.dead)
		l.conn.Close()
		l.m.links[l.peer].CompareAndSwap(l, nil)
	})
}

func (l *link) isDead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
}

// laneFor returns the lane's inbound queue, creating it on demand (frames
// legitimately arrive before the local goroutine registers the lane — the
// peer may simply be a step ahead). Returns nil for tombstoned lanes.
func (l *link) laneFor(lane uint32) *laneState {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if _, closed := l.closedLanes[lane]; closed {
		return nil
	}
	ls := l.lanes[lane]
	if ls == nil {
		if len(l.lanes) >= maxLanesPerLink {
			return nil // treated as protocol insanity by the caller
		}
		ls = &laneState{q: make(chan muxFrame, laneQueue)}
		l.lanes[lane] = ls
	}
	return ls
}

// closeLane tombstones a lane: its queue is dropped and late frames for it
// are discarded instead of accumulating.
func (l *link) closeLane(lane uint32) {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if _, done := l.closedLanes[lane]; done {
		return
	}
	delete(l.lanes, lane)
	l.closedLanes[lane] = struct{}{}
	l.closedFIFO = append(l.closedFIFO, lane)
	if len(l.closedFIFO) > maxTombstones {
		evict := l.closedFIFO[0]
		l.closedFIFO = l.closedFIFO[1:]
		delete(l.closedLanes, evict)
	}
}

// opError normalizes the socket error of a write that failed its link, so
// callers can classify without poking at net internals: a deadline expiry
// additionally wraps ErrRoundTimeout, any other error ErrPeerDown (a link
// closed under the write by a break or a redial reports "use of closed
// network connection").
func opError(verb string, peer int, err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("transport: %s party %d: %w: %w", verb, peer, ErrRoundTimeout, err)
	}
	return fmt.Errorf("transport: %s party %d: %w: %w", verb, peer, ErrPeerDown, err)
}

// writeFrame serializes one frame onto the socket under the link's write
// mutex (the fair writer: goroutines queue on the mutex in roughly FIFO
// order, and no lane can starve others beyond one frame). The write deadline
// is the heartbeat budget: a peer that stops draining its socket turns into
// a dead link, not a parked goroutine.
func (l *link) writeFrame(lane, seq uint32, payload []byte) error {
	if len(payload) > muxMaxFrame {
		return fmt.Errorf("transport: mux frame to party %d oversized: %d", l.peer, len(payload))
	}
	buf := make([]byte, muxHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], lane)
	binary.LittleEndian.PutUint32(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	copy(buf[muxHeaderLen:], payload)

	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.isDead() {
		return fmt.Errorf("transport: send to party %d: %w", l.peer, ErrPeerDown)
	}
	if hb := l.m.heartbeatDeadline(); hb > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(hb))
	}
	if _, err := l.conn.Write(buf); err != nil {
		l.fail()
		return opError("send to", l.peer, err)
	}
	l.m.pstats[l.peer].bytesSent.Add(int64(len(payload)))
	l.m.pstats[l.peer].msgsSent.Add(1)
	return nil
}

// readLoop demultiplexes inbound frames into lane queues, answers heartbeat
// pings, enforces per-lane sequence continuity and keeps the liveness clock.
func (l *link) readLoop() {
	defer l.fail()
	var hdr [muxHeaderLen]byte
	for {
		if hb := l.m.heartbeatDeadline(); hb > 0 {
			l.conn.SetReadDeadline(time.Now().Add(hb))
		}
		if _, err := io.ReadFull(l.rd, hdr[:]); err != nil {
			l.noteReadFailure(err)
			return
		}
		lane := binary.LittleEndian.Uint32(hdr[0:])
		seq := binary.LittleEndian.Uint32(hdr[4:])
		size := binary.LittleEndian.Uint32(hdr[8:])
		if size > muxMaxFrame {
			return // corrupt stream: kill the link
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(l.rd, payload); err != nil {
			l.noteReadFailure(err)
			return
		}
		l.m.pstats[l.peer].bytesRecv.Add(int64(size))
		l.m.pstats[l.peer].msgsRecv.Add(1)

		if lane == laneControl {
			if size == 1 && payload[0] == hbPing {
				// Best-effort pong; a write failure kills the link anyway.
				l.writeFrame(laneControl, 0, []byte{hbPong})
			}
			continue
		}
		ls := l.laneFor(lane)
		if ls == nil {
			continue // tombstoned (or insane lane count): drop late frame
		}
		if ls.haveSeq && seq != ls.recvSeq {
			return // sequence break: desynchronized stream, kill the link
		}
		ls.recvSeq = seq + 1
		ls.haveSeq = true
		select {
		case ls.q <- muxFrame{data: payload}:
		case <-l.dead:
			return
		}
	}
}

// noteReadFailure distinguishes a heartbeat-deadline expiry (counted as a
// miss) from other socket errors.
func (l *link) noteReadFailure(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		l.m.pstats[l.peer].hbMisses.Add(1)
	}
}

// peerCounters is the per-peer atomic counter block (scrape-safe under
// -race: no lock is shared with the data path).
type peerCounters struct {
	bytesSent, msgsSent atomic.Int64
	bytesRecv, msgsRecv atomic.Int64
	reconnects          atomic.Int64
	hbMisses            atomic.Int64
	dialFailures        atomic.Int64
}

// MeshPeerStats is one peer's traffic and liveness counters.
type MeshPeerStats struct {
	Peer int
	Up   bool
	// OpenLanes counts the session lanes holding an inbound queue on the
	// live link: back to 0 once every session over it is closed.
	OpenLanes  int
	Generation uint64 // link generations installed (1 = never reconnected)
	BytesSent  int64
	MsgsSent   int64
	BytesRecv  int64
	MsgsRecv   int64
	// Reconnects counts link REPLACEMENTS (generations beyond the first).
	Reconnects int64
	// HeartbeatMisses counts liveness deadline expiries that killed a link.
	HeartbeatMisses int64
	// DialFailures counts failed redial attempts (backoff retries).
	DialFailures int64
}

// MeshStats aggregates a mesh endpoint's counters.
type MeshStats struct {
	Party           int
	Peers           []MeshPeerStats
	LinksUp         int
	Reconnects      int64
	HeartbeatMisses int64
	BytesSent       int64
	MsgsSent        int64
}

// Mesh is one party's endpoint into a resilient multiplexed TCP mesh:
// exactly one physical connection per peer (mTLS when configured), any
// number of concurrent session lanes multiplexed over it, heartbeat-based
// failure detection and automatic redial with bounded exponential backoff.
//
// Lanes opened while a link is down (or that outlive their link) fail fast
// with ErrPeerDown; lanes opened after the redial transparently use the new
// link. Pairing roles are fixed by party rank: party i accepts from every
// j > i and dials every j < i, and keeps those roles for reconnection — the
// higher-numbered party redials, the lower-numbered party re-accepts.
type Mesh struct {
	id, n int
	addrs []string
	opts  MeshOptions

	srvTLS *tls.Config
	cliTLS *tls.Config

	ln    net.Listener
	stop  chan struct{}
	stopO sync.Once
	wg    sync.WaitGroup

	links []atomic.Pointer[link]
	gens  []atomic.Uint64

	pstats []peerCounters
}

// DialMeshMux establishes a resilient multiplexed mesh among n parties;
// addrs[i] is party i's listen address (unused for i == n−1, which accepts
// nothing). All parties must start concurrently; opts.DialTimeout bounds the
// initial full-mesh establishment. After that, individual link failures are
// repaired automatically in the background for the life of the mesh.
func DialMeshMux(id, n int, addrs []string, opts MeshOptions) (*Mesh, error) {
	if len(addrs) != n {
		return nil, fmt.Errorf("transport: %d addrs for %d parties", len(addrs), n)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("transport: party %d out of range [0,%d)", id, n)
	}
	opts = opts.withDefaults()
	m := &Mesh{
		id: id, n: n, addrs: addrs, opts: opts,
		stop:   make(chan struct{}),
		links:  make([]atomic.Pointer[link], n),
		gens:   make([]atomic.Uint64, n),
		pstats: make([]peerCounters, n),
	}
	if opts.TLS.Enabled() {
		var err error
		if m.srvTLS, err = opts.TLS.ServerTLS(); err != nil {
			return nil, err
		}
		if m.cliTLS, err = opts.TLS.ClientTLS(); err != nil {
			return nil, err
		}
	}
	if id < n-1 { // parties that accept at least one connection
		ln := opts.Listener
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", addrs[id])
			if err != nil {
				return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
			}
		}
		m.ln = ln
		m.wg.Add(1)
		go m.acceptLoop()
	}
	for peer := 0; peer < id; peer++ { // dial lower-numbered parties, forever
		m.wg.Add(1)
		go m.dialLoop(peer)
	}
	if err := m.waitReady(opts.DialTimeout); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

func (m *Mesh) Party() int { return m.id }
func (m *Mesh) N() int     { return m.n }

// heartbeatDeadline is the I/O stall budget: Heartbeat×heartbeatMisses (0 when
// heartbeats are disabled).
func (m *Mesh) heartbeatDeadline() time.Duration {
	if m.opts.Heartbeat < 0 {
		return 0
	}
	return m.opts.Heartbeat * heartbeatMisses
}

// waitReady blocks until every peer link is up (initial mesh establishment).
func (m *Mesh) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for p := 0; p < m.n; p++ {
			if p != m.id && m.links[p].Load() == nil {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			var down []int
			for p := 0; p < m.n; p++ {
				if p != m.id && m.links[p].Load() == nil {
					down = append(down, p)
				}
			}
			return fmt.Errorf("transport: mesh setup timeout: party %d has no link to %v: %w", m.id, down, ErrPeerDown)
		}
		select {
		case <-m.stop:
			return fmt.Errorf("transport: mesh closed during setup")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (m *Mesh) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// acceptLoop pairs inbound connections (initial and re-established) to
// higher-numbered peers by their hello, replacing any previous link.
func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			if m.stopped() {
				return
			}
			// Transient accept failure (e.g. fd pressure): brief pause, retry.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.handleInbound(conn)
		}()
	}
}

// handleInbound runs the acceptor-side handshake: optional TLS, then the
// hello identifying the dialing party.
func (m *Mesh) handleInbound(conn net.Conn) {
	hsDeadline := time.Now().Add(m.opts.DialTimeout)
	if m.srvTLS != nil {
		tconn := tls.Server(conn, m.srvTLS)
		tconn.SetDeadline(hsDeadline)
		if err := tconn.Handshake(); err != nil {
			tconn.Close()
			return
		}
		tconn.SetDeadline(time.Time{})
		conn = tconn
	}
	conn.SetReadDeadline(hsDeadline)
	var hello [muxHelloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if binary.LittleEndian.Uint32(hello[0:]) != muxHelloMagic ||
		binary.LittleEndian.Uint32(hello[4:]) != muxHelloVersion {
		conn.Close()
		return
	}
	peer := int(binary.LittleEndian.Uint32(hello[8:]))
	if peer <= m.id || peer >= m.n {
		conn.Close()
		return
	}
	m.install(peer, conn)
}

// dialLoop owns the link to one lower-numbered peer for the mesh lifetime:
// dial (with hello), then sleep until the link dies, then redial under
// bounded exponential backoff. Backoff resets after every successful dial.
func (m *Mesh) dialLoop(peer int) {
	defer m.wg.Done()
	backoff := redialMin
	for {
		if m.stopped() {
			return
		}
		if m.links[peer].Load() == nil {
			conn, err := m.dialPeer(peer)
			if err != nil {
				m.pstats[peer].dialFailures.Add(1)
				select {
				case <-m.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > redialMax {
					backoff = redialMax
				}
				continue
			}
			m.install(peer, conn)
			backoff = redialMin
		}
		l := m.links[peer].Load()
		if l == nil {
			continue
		}
		select {
		case <-m.stop:
			return
		case <-l.dead:
		}
	}
}

// dialPeer performs one outbound connection attempt: TCP dial, optional TLS
// handshake, hello.
func (m *Mesh) dialPeer(peer int) (net.Conn, error) {
	d := net.Dialer{Timeout: m.opts.DialTimeout}
	conn, err := d.Dial("tcp", m.addrs[peer])
	if err != nil {
		return nil, err
	}
	hsDeadline := time.Now().Add(m.opts.DialTimeout)
	if m.cliTLS != nil {
		tconn := tls.Client(conn, m.cliTLS)
		tconn.SetDeadline(hsDeadline)
		if err := tconn.Handshake(); err != nil {
			tconn.Close()
			return nil, err
		}
		tconn.SetDeadline(time.Time{})
		conn = tconn
	}
	var hello [muxHelloLen]byte
	binary.LittleEndian.PutUint32(hello[0:], muxHelloMagic)
	binary.LittleEndian.PutUint32(hello[4:], muxHelloVersion)
	binary.LittleEndian.PutUint32(hello[8:], uint32(m.id))
	conn.SetWriteDeadline(hsDeadline)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// install activates a fresh link to peer (next generation), failing and
// replacing any previous one, and starts its reader and heartbeat sender.
func (m *Mesh) install(peer int, conn net.Conn) {
	if m.stopped() {
		conn.Close()
		return
	}
	gen := m.gens[peer].Add(1)
	l := &link{
		m: m, peer: peer, gen: gen, conn: conn,
		rd:          bufio.NewReader(conn),
		dead:        make(chan struct{}),
		lanes:       make(map[uint32]*laneState),
		closedLanes: make(map[uint32]struct{}),
	}
	if old := m.links[peer].Swap(l); old != nil {
		old.fail()
	}
	if gen > 1 {
		m.pstats[peer].reconnects.Add(1)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		l.readLoop()
	}()
	if m.opts.Heartbeat > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop(l)
	}
}

// heartbeatLoop pings the peer every interval. Liveness is enforced by the
// read deadline in readLoop (no inbound traffic for Heartbeat×Misses kills
// the link); the sender's job is to guarantee there IS periodic traffic on
// an otherwise idle healthy link, and to detect a peer that stopped
// draining its socket via the write deadline.
func (m *Mesh) heartbeatLoop(l *link) {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-l.dead:
			return
		case <-m.stop:
			return
		case <-t.C:
			if err := l.writeFrame(laneControl, 0, []byte{hbPing}); err != nil {
				return // writeFrame already failed the link
			}
		}
	}
}

// link returns the current live link to peer, or nil.
func (m *Mesh) link(peer int) *link {
	l := m.links[peer].Load()
	if l == nil || l.isDead() {
		return nil
	}
	return l
}

// LinkUp reports whether the physical link to peer is currently live.
func (m *Mesh) LinkUp(peer int) bool { return m.link(peer) != nil }

// BreakLink force-closes the current physical link to peer (chaos hook: a
// mid-round disconnect indistinguishable from a yanked cable). The mesh's
// redial machinery repairs it in the background.
func (m *Mesh) BreakLink(peer int) {
	if l := m.links[peer].Load(); l != nil {
		l.fail()
	}
}

// Stats snapshots the mesh endpoint's per-peer counters.
func (m *Mesh) Stats() MeshStats {
	st := MeshStats{Party: m.id}
	for p := 0; p < m.n; p++ {
		if p == m.id {
			continue
		}
		c := &m.pstats[p]
		l := m.link(p)
		ps := MeshPeerStats{
			Peer:            p,
			Up:              l != nil,
			Generation:      m.gens[p].Load(),
			BytesSent:       c.bytesSent.Load(),
			MsgsSent:        c.msgsSent.Load(),
			BytesRecv:       c.bytesRecv.Load(),
			MsgsRecv:        c.msgsRecv.Load(),
			Reconnects:      c.reconnects.Load(),
			HeartbeatMisses: c.hbMisses.Load(),
			DialFailures:    c.dialFailures.Load(),
		}
		if l != nil {
			st.LinksUp++
			l.qmu.Lock()
			ps.OpenLanes = len(l.lanes)
			l.qmu.Unlock()
		}
		st.Reconnects += ps.Reconnects
		st.HeartbeatMisses += ps.HeartbeatMisses
		st.BytesSent += ps.BytesSent
		st.MsgsSent += ps.MsgsSent
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// FirstSessionLane is the lowest lane ID a session gets: lane 0 is the
// control lane and lanes 1..15 stay free for long-lived rendezvous streams.
const FirstSessionLane uint32 = 16

// Lane binds a session lane with an explicit ID (cross-process callers
// derive lane IDs in lockstep, e.g. from a query sequence number). IDs must
// be ≥ 1; lane 0 is the control lane. Reusing a closed lane ID on the same
// link generation delivers no frames (it is tombstoned); across generations
// it starts clean.
func (m *Mesh) Lane(id uint32) *LaneConn {
	if id == laneControl {
		panic("transport: lane 0 is reserved for mesh control")
	}
	return &LaneConn{m: m, lane: id, sendSeq: make([]laneSeq, m.n)}
}

// Close tears the mesh down: all links fail, lane waiters wake with
// ErrPeerDown, background goroutines exit.
func (m *Mesh) Close() error {
	m.stopO.Do(func() {
		close(m.stop)
		if m.ln != nil {
			m.ln.Close()
		}
		for p := range m.links {
			if l := m.links[p].Load(); l != nil {
				l.fail()
			}
		}
	})
	m.wg.Wait()
	return nil
}

// laneSeq tracks the outbound sequence toward one peer, reset per link
// generation (the receiver's expectations are per-generation too).
type laneSeq struct {
	gen uint64
	seq uint32
}

// LaneConn is one multiplexed session lane over a Mesh: a full Conn
// (Party/N/Send/Recv/Close) whose frames share the P−1 physical links with
// every other lane. Like every Conn it is driven by one goroutine at a
// time. Operations fail fast with a wrapped ErrPeerDown when the link to
// the addressed peer is down; a lane handle remains usable across link
// generations (sequence numbering restarts with each generation), so
// long-lived rendezvous lanes can simply retry after reconnection.
type LaneConn struct {
	m       *Mesh
	lane    uint32
	sendSeq []laneSeq
	closed  atomic.Bool

	timeoutNs atomic.Int64 // per-Recv wait bound, nanoseconds (0 = none)
}

func (c *LaneConn) Party() int { return c.m.id }
func (c *LaneConn) N() int     { return c.m.n }

// ID returns the lane's mux ID.
func (c *LaneConn) ID() uint32 { return c.lane }

// SetRoundTimeout bounds every Recv on this lane (0 = wait forever, except
// for link death, which always wakes waiters).
func (c *LaneConn) SetRoundTimeout(d time.Duration) { c.timeoutNs.Store(int64(d)) }

// Send transmits one frame to party `to` over the shared link.
func (c *LaneConn) Send(to int, data []byte) error {
	if c.closed.Load() {
		return fmt.Errorf("transport: send on lane %d: %w", c.lane, ErrLaneClosed)
	}
	if to < 0 || to >= c.m.n || to == c.m.id {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
	l := c.m.link(to)
	if l == nil {
		return fmt.Errorf("transport: send to party %d (lane %d): %w", to, c.lane, ErrPeerDown)
	}
	st := &c.sendSeq[to]
	if st.gen != l.gen {
		st.gen, st.seq = l.gen, 0
	}
	seq := st.seq
	if err := l.writeFrame(c.lane, seq, data); err != nil {
		return err
	}
	st.seq++
	return nil
}

// Recv blocks for one frame from party `from` on this lane, bounded by the
// lane (or mesh) round timeout. Link death during the wait fails the
// receive immediately with a wrapped ErrPeerDown.
func (c *LaneConn) Recv(from int) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("transport: recv on lane %d: %w", c.lane, ErrLaneClosed)
	}
	if from < 0 || from >= c.m.n || from == c.m.id {
		return nil, fmt.Errorf("transport: invalid source %d", from)
	}
	l := c.m.link(from)
	if l == nil {
		return nil, fmt.Errorf("transport: recv from party %d (lane %d): %w", from, c.lane, ErrPeerDown)
	}
	ls := l.laneFor(c.lane)
	if ls == nil {
		return nil, fmt.Errorf("transport: recv from party %d: %w", from, ErrLaneClosed)
	}
	// Fast path: a frame is already queued.
	select {
	case f := <-ls.q:
		return f.data, nil
	default:
	}
	var timer *time.Timer
	var timeoutC <-chan time.Time
	if d := time.Duration(c.timeoutNs.Load()); d > 0 {
		timer = time.NewTimer(d)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case f := <-ls.q:
		return f.data, nil
	case <-l.dead:
		return nil, fmt.Errorf("transport: recv from party %d (lane %d, link gen %d): %w", from, c.lane, l.gen, ErrPeerDown)
	case <-timeoutC:
		return nil, fmt.Errorf("transport: recv from party %d (lane %d): %w", from, c.lane, ErrRoundTimeout)
	}
}

// Close tombstones the lane on every live link; late frames for it are
// discarded.
func (c *LaneConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for p := 0; p < c.m.n; p++ {
		if p == c.m.id {
			continue
		}
		if l := c.m.links[p].Load(); l != nil {
			l.closeLane(c.lane)
		}
	}
	return nil
}
