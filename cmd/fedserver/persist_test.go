package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/graph"
	"repro/internal/transport"
	"repro/internal/wal"
)

// persistFed builds the deterministic federation every persistence test
// shares: same seed ⇒ same topology and silo weights, standing in for the
// same -dataset/-seed flags across a server restart. The returned shadow is
// the test's own copy of the private silo weights — the federation never
// exposes them, so the oracle tracks them alongside every update it applies.
func persistFed(t *testing.T) (*fedroad.Federation, []fedroad.Weights) {
	t.Helper()
	g, w0 := fedroad.GenerateRoadNetwork(100, 401)
	silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 402)
	shadow := make([]fedroad.Weights, len(silosW))
	for p, set := range silosW {
		shadow[p] = append(fedroad.Weights(nil), set...)
	}
	f, err := fedroad.New(g, w0, silosW, fedroad.Config{Mode: fedroad.ModeIdeal, Seed: 403})
	if err != nil {
		t.Fatal(err)
	}
	return f, shadow
}

// applyRandomTraffic pushes deterministic single-update batches through the
// persister, mirroring each into shadow when non-nil.
func applyRandomTraffic(t *testing.T, p *persister, shadow []fedroad.Weights, seed uint64, batches int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	numArcs := p.fed.Graph().NumArcs()
	for i := 0; i < batches; i++ {
		ups := []fedroad.TrafficUpdate{{
			Silo:     rng.IntN(3),
			Arc:      fedroad.Arc(rng.IntN(numArcs)),
			TravelMs: int64(1 + rng.IntN(100000)),
		}}
		if _, err := p.Apply(ups); err != nil {
			t.Fatal(err)
		}
		if shadow != nil {
			shadow[ups[0].Silo][ups[0].Arc] = ups[0].TravelMs
		}
	}
}

// The headline restart path: snapshot with index, more deltas in the WAL,
// process dies, fresh process restores — index back without an MPC rebuild,
// deltas replayed, and queries agree with plaintext Dijkstra.
func TestPersistRestartRestoresIndexWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	fed, shadow := persistFed(t)
	p, err := newPersister(fed, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(); err != nil { // first boot: nothing on disk
		t.Fatal(err)
	}
	if err := fed.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyRandomTraffic(t, p, shadow, 404, 5) // WAL-only deltas after the snapshot
	wantVer := fed.TrafficVersion()
	p.Close()

	// "Restart": fresh federation, no index, same persistence directory.
	fed2, _ := persistFed(t)
	p2, err := newPersister(fed2, dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !restored || !fed2.HasIndex() {
		t.Fatal("restart did not restore the shortcut index from the snapshot")
	}
	m := fed2.Metrics().Snapshot()
	if got := m["fedserver_persist_replayed_deltas"]; got != 5 {
		t.Fatalf("fedserver_persist_replayed_deltas = %v, want 5", got)
	}
	if m["fedserver_persist_restored_index"] != 1 || m["fedserver_persist_restore_seconds"] <= 0 {
		t.Fatalf("fedserver_persist_restored_index = %v, fedserver_persist_restore_seconds = %v",
			m["fedserver_persist_restored_index"], m["fedserver_persist_restore_seconds"])
	}
	if got := fed2.TrafficVersion(); got != wantVer {
		t.Fatalf("traffic version %d after restart, want %d", got, wantVer)
	}

	// Restored index answers exactly like plaintext Dijkstra on the shadow
	// joint weights (which include the replayed deltas).
	g := fed2.Graph()
	joint := make(fedroad.Weights, g.NumArcs())
	for _, set := range shadow {
		for a, w := range set {
			joint[a] += w
		}
	}
	rng := rand.New(rand.NewPCG(405, 0))
	for trial := 0; trial < 15; trial++ {
		s := fedroad.Vertex(rng.IntN(g.NumVertices()))
		d := fedroad.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, d)
		route, _, err := fed2.ShortestPath(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if want >= graph.InfCost {
			if route.Found {
				t.Fatalf("route %d→%d found, oracle unreachable", s, d)
			}
			continue
		}
		if got := fedroad.JointCost(route); got != want {
			t.Fatalf("restored route %d→%d cost %d, oracle %d", s, d, got, want)
		}
	}
}

// Crash between writing a snapshot and resetting the WAL: the log still holds
// deltas the snapshot already includes. Restore must skip them by version —
// replaying them would double-apply nothing here (last-write-wins), but the
// count must show zero so the invariant is visible.
func TestPersistCrashBetweenSnapshotAndWALReset(t *testing.T) {
	dir := t.TempDir()
	fed, _ := persistFed(t)
	p, err := newPersister(fed, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	applyRandomTraffic(t, p, nil, 406, 3)
	// Simulate the torn Snapshot(): state file written, crash before Reset.
	if err := wal.WriteFileAtomic(p.snapPath(), fed.SaveState); err != nil {
		t.Fatal(err)
	}
	wantVer := fed.TrafficVersion()
	p.Close()

	fed2, _ := persistFed(t)
	p2, err := newPersister(fed2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Restore(); err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := fed2.Metrics().Snapshot()["fedserver_persist_replayed_deltas"]; got != 0 {
		t.Fatalf("replayed %v deltas already inside the snapshot, want 0", got)
	}
	if got := fed2.TrafficVersion(); got != wantVer {
		t.Fatalf("traffic version %d, want %d", got, wantVer)
	}
}

// Crash mid-append: the WAL ends in a torn record. Restore applies every
// complete record, truncates the tail, and the log keeps accepting appends.
func TestPersistTornWALTail(t *testing.T) {
	dir := t.TempDir()
	fed, _ := persistFed(t)
	p, err := newPersister(fed, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	applyRandomTraffic(t, p, nil, 407, 4)
	wantVer := fed.TrafficVersion()
	p.Close()

	// Tear the tail: append half a record's worth of garbage.
	f, err := os.OpenFile(p.walPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(p.walPath())
	if err != nil {
		t.Fatal(err)
	}

	fed2, _ := persistFed(t)
	p2, err := newPersister(fed2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := fed2.Metrics().Snapshot()["fedserver_persist_replayed_deltas"]; got != 4 {
		t.Fatalf("replayed %v deltas, want 4", got)
	}
	if got := fed2.TrafficVersion(); got != wantVer {
		t.Fatalf("traffic version %d, want %d", got, wantVer)
	}
	after, err := os.Stat(p2.walPath())
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d → %d bytes", before.Size(), after.Size())
	}
	// And the recovered log must still be appendable at the record boundary.
	applyRandomTraffic(t, p2, nil, 408, 1)
	p2.Close()

	fed3, _ := persistFed(t)
	p3, err := newPersister(fed3, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Restore(); err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := fed3.Metrics().Snapshot()["fedserver_persist_replayed_deltas"]; got != 5 {
		t.Fatalf("replayed %v deltas after recovery append, want 5", got)
	}
}

// A durable apply that fails to log must say so: the update is live in
// memory but a restart would lose it.
func TestPersistApplySurfacesWALFailure(t *testing.T) {
	dir := t.TempDir()
	fed, _ := persistFed(t)
	p, err := newPersister(fed, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	p.wal.Close() // simulate the log handle dying under the server
	_, err = p.Apply([]fedroad.TrafficUpdate{{Silo: 0, Arc: 1, TravelMs: 5000}})
	if err == nil {
		t.Fatal("apply with a dead WAL reported success")
	}
}

// TestPersistRefusesBatchTooLargeToLog: a batch whose WAL record would
// exceed wal.MaxRecord is refused as an invalid update before anything is
// applied, so it is neither published nor logged.
func TestPersistRefusesBatchTooLargeToLog(t *testing.T) {
	fed, _ := persistFed(t)
	p, err := newPersister(fed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before, err := os.Stat(p.walPath())
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]fedroad.TrafficUpdate, maxLoggedUpdates+1) // 4,194,304 valid updates, 12+16n > wal.MaxRecord
	for i := range ups {
		ups[i] = fedroad.TrafficUpdate{Silo: 0, Arc: 1, TravelMs: 5000}
	}
	if _, err := p.Apply(ups); !errors.Is(err, fedroad.ErrInvalidUpdate) {
		t.Fatalf("apply of %d updates: %v, want ErrInvalidUpdate", len(ups), err)
	}
	after, err := os.Stat(p.walPath())
	if err != nil {
		t.Fatal(err)
	}
	if v := fed.TrafficVersion(); v != 0 || p.walAppends.Load() != 0 || after.Size() != before.Size() {
		t.Fatalf("refused batch: traffic version %d, %d WAL appends, WAL %d → %d bytes",
			v, p.walAppends.Load(), before.Size(), after.Size())
	}
}

// oneSendFault fails party 1's next Send once armed, on any engine.
type oneSendFault struct {
	transport.Conn
	armed *atomic.Bool
}

func (c oneSendFault) Send(to int, data []byte) error {
	if c.Party() == 1 && c.armed.CompareAndSwap(true, false) {
		return fmt.Errorf("chaos: injected send fault: %w", transport.ErrTransient)
	}
	return c.Conn.Send(to, data)
}

// A batch whose index refresh fails was not applied: the WAL must not hold
// it, so a restart restores the version and the weights that were served —
// and the batch, resent, is applied and logged.
func TestPersistSkipsBatchWhoseRefreshFailed(t *testing.T) {
	armed := new(atomic.Bool)
	open := func() *fedroad.Federation {
		g, w0 := fedroad.GenerateRoadNetwork(80, 411)
		silosW := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 412)
		f, err := fedroad.New(g, w0, silosW, fedroad.Config{
			Seed:         413,
			Mode:         fedroad.ModeProtocol,
			RoundTimeout: 150 * time.Millisecond,
			TransportWrap: func(_ int, c transport.Conn) transport.Conn {
				return oneSendFault{Conn: c, armed: armed}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f
	}
	state := func(f *fedroad.Federation) []byte {
		var buf bytes.Buffer
		if err := f.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dir := t.TempDir()
	restart := func() (*fedroad.Federation, *persister) {
		f := open()
		p, err := newPersister(f, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Restore(); err != nil {
			t.Fatal(err)
		}
		return f, p
	}
	fed, p := restart()
	if err := fed.CustomizeIndex(); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	served := state(fed)
	armed.Store(true)
	batch := []fedroad.TrafficUpdate{{Silo: 0, Arc: 3, TravelMs: 777000}, {Silo: 2, Arc: 11, TravelMs: 5}}
	if _, err := p.Apply(batch); err == nil {
		t.Fatal("an index refresh through a failed round succeeded")
	}
	if fed.TrafficVersion() != 0 || p.walAppends.Load() != 0 {
		t.Fatalf("the failed batch: version %d, %d WAL appends", fed.TrafficVersion(), p.walAppends.Load())
	}
	p.Close()

	fed2, p2 := restart()
	if got := state(fed2); !bytes.Equal(got, served) {
		t.Fatalf("the state after restart differs from the state served (version %d)", fed2.TrafficVersion())
	}
	if _, err := p2.Apply(batch); err != nil {
		t.Fatalf("the batch resent: %v", err)
	}
	p2.Close()
	fed3, p3 := restart()
	defer p3.Close()
	if !bytes.Equal(state(fed3), state(fed2)) || fed3.TrafficVersion() != 1 {
		t.Fatalf("the resent batch did not survive a restart: version %d", fed3.TrafficVersion())
	}
}

// TestPersistLogsNoMalformedTraffic: under -persist, a /traffic body that
// names a silo or arc out of range or a travel time outside (0, MaxTravelMs)
// gets 400 from ApplyTraffic's validation, and nothing reaches the WAL.
func TestPersistLogsNoMalformedTraffic(t *testing.T) {
	fed, _ := persistFed(t)
	p, err := newPersister(fed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := newServer(fed, 8, 0, 0)
	srv.persist = p
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	for _, body := range []string{
		`[{"silo":99,"arc":0,"travel_ms":1000}]`,
		`[{"silo":0,"arc":999999,"travel_ms":1000}]`,
		`[{"silo":0,"arc":0,"travel_ms":0}]`,
		`[{"silo":-1,"arc":0,"travel_ms":1000}]`,
		`[{"silo":0,"arc":-1,"travel_ms":1000}]`,
		`[{"silo":0,"arc":0,"travel_ms":4294967296}]`,
		`[{"silo":0,"arc":0,"travel_ms":1000},{"silo":0,"arc":1,"travel_ms":0}]`,
	} {
		resp, err := http.Post(ts.URL+"/traffic", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := p.walAppends.Load(); n != 0 || fed.TrafficVersion() != 0 {
		t.Fatalf("malformed batches: %d WAL appends, traffic version %d", n, fed.TrafficVersion())
	}
}
