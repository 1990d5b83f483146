package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/ch"
	"repro/internal/wal"
)

// persister gives fedserver a restart path that skips the MPC index rebuild:
// a full state snapshot (silo weights + traffic version + shortcut index,
// written atomically) plus a traffic-delta WAL for everything applied since.
// Restore = read snapshot, replay deltas, reopen the log. The recovery
// sequence tolerates exactly the crashes that happen in practice — between a
// snapshot and the next delta, or mid-append (torn tail) — see
// internal/wal and DESIGN.md, "Serving tier".
type persister struct {
	fed *fedroad.Federation
	dir string

	// mu serializes snapshots against apply+append so the WAL can never hold
	// a delta the snapshot both misses and Reset discards: Apply holds it
	// across ApplyTraffic and the WAL append (record order = version order),
	// Snapshot holds it across SaveState and the WAL reset.
	mu  sync.Mutex
	wal *wal.WAL

	// What Restore found (written before serving) and the appends since,
	// read by the fedserver_persist_* series.
	restoredIndex  bool
	restoreTime    time.Duration
	replayedDeltas int
	walAppends     atomic.Int64
}

func (p *persister) snapPath() string { return filepath.Join(p.dir, "state.snap") }
func (p *persister) walPath() string  { return filepath.Join(p.dir, "traffic.wal") }

// newPersister prepares the persistence directory (creating it if needed)
// and registers the persister's series on fed's registry. Call Restore
// before serving and Snapshot after the index is ready.
func newPersister(fed *fedroad.Federation, dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	p := &persister{fed: fed, dir: dir}
	reg := fed.Metrics()
	reg.GaugeFunc("fedserver_persist_restored_index", "1 when the snapshot restored at start carried a shortcut index", nil,
		func() float64 { return one(p.restoredIndex) })
	reg.GaugeFunc("fedserver_persist_restore_seconds", "wall time of the restore at start: snapshot read and WAL replay", nil,
		func() float64 { return p.restoreTime.Seconds() })
	reg.GaugeFunc("fedserver_persist_replayed_deltas", "traffic batches replayed from the WAL at start", nil,
		func() float64 { return float64(p.replayedDeltas) })
	reg.CounterFunc("fedserver_persist_wal_appends_total", "traffic batches appended to the WAL", nil,
		func() float64 { return float64(p.walAppends.Load()) })
	return p, nil
}

// Restore loads the snapshot (when one exists), replays the traffic WAL on
// top of it, truncates any torn tail, and opens the log for appending. It
// returns whether the snapshot carried a shortcut index — when true the
// caller skips the MPC index build entirely.
func (p *persister) Restore() (restoredIndex bool, err error) {
	start := time.Now()
	f, err := os.Open(p.snapPath())
	switch {
	case err == nil:
		restoredIndex, err = p.fed.RestoreState(f)
		f.Close()
		if err != nil {
			return false, fmt.Errorf("persist: snapshot: %w", err)
		}
	case os.IsNotExist(err):
		// First boot (or crash before the first snapshot): the WAL alone
		// replays onto the freshly constructed federation.
	default:
		return false, fmt.Errorf("persist: %w", err)
	}
	// Deltas at or below the snapshot's version are already baked into the
	// snapshot; everything newer is replayed in order.
	snapVer := p.fed.TrafficVersion()
	applied := 0
	_, goodOff, truncated, err := wal.Replay(p.walPath(), func(payload []byte) error {
		ver, updates, derr := decodeTrafficRecord(payload)
		if derr != nil {
			return derr
		}
		if ver <= snapVer {
			return nil
		}
		if _, aerr := p.fed.ApplyTraffic(updates); aerr != nil {
			return aerr
		}
		applied++
		return nil
	})
	if err != nil {
		return false, fmt.Errorf("persist: wal replay: %w", err)
	}
	if truncated {
		// The torn tail is a crash artifact, not corruption; cut it so new
		// appends land at a record boundary.
		if terr := os.Truncate(p.walPath(), goodOff); terr != nil && !os.IsNotExist(terr) {
			return false, fmt.Errorf("persist: wal truncate: %w", terr)
		}
	}
	p.wal, err = wal.Open(p.walPath())
	if err != nil {
		return false, err
	}
	p.restoredIndex = restoredIndex
	p.replayedDeltas = applied
	p.restoreTime = time.Since(start)
	return restoredIndex, nil
}

// Snapshot atomically writes the full federation state and then resets the
// WAL (every logged delta is now inside the snapshot). A crash between the
// two steps leaves a snapshot plus a WAL of older deltas — Restore's version
// check skips them, so recovery stays exact.
func (p *persister) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := wal.WriteFileAtomic(p.snapPath(), p.fed.SaveState); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	return p.wal.Reset()
}

// Apply runs a traffic batch through the federation and logs it durably,
// holding mu so the record order in the WAL matches the version order the
// federation assigned. A batch is logged iff it was applied: an empty batch
// bumps no version, and a failed one — rejected, too large to log, or its
// index refresh failed — published nothing.
func (p *persister) Apply(updates []fedroad.TrafficUpdate) (ch.UpdateStats, error) {
	if len(updates) > maxLoggedUpdates {
		return ch.UpdateStats{}, fmt.Errorf("%w: a batch of %d updates is more than one WAL record holds (%d)",
			fedroad.ErrInvalidUpdate, len(updates), maxLoggedUpdates)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stats, err := p.fed.ApplyTraffic(updates)
	if err != nil || len(updates) == 0 {
		return stats, err
	}
	if werr := p.wal.Append(encodeTrafficRecord(p.fed.TrafficVersion(), updates)); werr != nil {
		// The update is live but not durable; surface it as a server error so
		// the operator notices before a restart silently loses the delta.
		return stats, fmt.Errorf("persist: wal append: %w", werr)
	}
	p.walAppends.Add(1)
	return stats, nil
}

// Close closes the WAL handle.
func (p *persister) Close() {
	if p.wal != nil {
		p.wal.Close()
	}
}

// A traffic WAL record: the post-apply traffic version, then the batch.
//
//	[u64 version][u32 count] count × ([u32 silo][u32 arc][i64 travel_ms])
//
// maxLoggedUpdates is the largest batch whose record wal.MaxRecord admits.
const maxLoggedUpdates = (wal.MaxRecord - 12) / 16

func encodeTrafficRecord(ver uint64, updates []fedroad.TrafficUpdate) []byte {
	buf := make([]byte, 12+16*len(updates))
	binary.LittleEndian.PutUint64(buf[0:8], ver)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(updates)))
	off := 12
	for _, u := range updates {
		binary.LittleEndian.PutUint32(buf[off:], uint32(u.Silo))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(u.Arc))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(u.TravelMs))
		off += 16
	}
	return buf
}

func decodeTrafficRecord(payload []byte) (uint64, []fedroad.TrafficUpdate, error) {
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("traffic record too short (%d bytes)", len(payload))
	}
	ver := binary.LittleEndian.Uint64(payload[0:8])
	count := binary.LittleEndian.Uint32(payload[8:12])
	if int64(len(payload)) != 12+16*int64(count) {
		return 0, nil, fmt.Errorf("traffic record count %d disagrees with length %d", count, len(payload))
	}
	updates := make([]fedroad.TrafficUpdate, count)
	off := 12
	for i := range updates {
		updates[i] = fedroad.TrafficUpdate{
			Silo:     int(binary.LittleEndian.Uint32(payload[off:])),
			Arc:      fedroad.Arc(binary.LittleEndian.Uint32(payload[off+4:])),
			TravelMs: int64(binary.LittleEndian.Uint64(payload[off+8:])),
		}
		off += 16
	}
	return ver, updates, nil
}
