package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/admit"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/transport"
)

// The micro-probes time one public function of one layer in isolation. They
// run only in the traced run, after the window has closed, and every endpoint,
// mesh and directory they open is closed before they return.

// per is the mean time of one of n calls, in unit u (time.Microsecond, ...).
func per(n int, u time.Duration, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n) / float64(u)
}

// pingPong is the mean round trip of a 64-byte message between two endpoints.
func pingPong(a, b transport.Conn, n int) (float64, error) {
	msg := make([]byte, 64)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := b.Recv(a.Party())
			if err == nil {
				err = b.Send(a.Party(), m)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var err error
	us := per(n, time.Microsecond, func() {
		if err == nil {
			err = a.Send(b.Party(), msg)
		}
		if err == nil {
			_, err = a.Recv(b.Party())
		}
	})
	if err != nil {
		// The echo side is blocked in Recv or about to fail the same way:
		// closing both ends releases it.
		a.Close()
		b.Close()
		<-echoErr
		return 0, err
	}
	return us, <-echoErr
}

// probeTransport measures the three transports' round trips and the cost of
// opening a lane set.
func probeTransport(v values, certDir string, scale int) error {
	mem := transport.NewMem(2)
	us, err := pingPong(mem.Conn(0), mem.Conn(1), 20000/scale)
	if err != nil {
		return fmt.Errorf("mem ping-pong: %w", err)
	}
	v["transport.mem_rtt_us"] = us
	for _, tc := range []struct {
		name string
		tls  *transport.TLSConfig
	}{
		{"transport.lane_rtt_us", nil},
		{"transport.lane_tls_rtt_us", transport.TestCertConfig(certDir, 0)},
	} {
		lm, err := transport.NewLocalMesh(2, transport.MeshOptions{TLS: tc.tls})
		if err != nil {
			return err
		}
		conns, _ := lm.SessionConns()
		us, err := pingPong(conns[0], conns[1], 5000/scale)
		if err == nil && tc.tls != nil {
			v["transport.lane_open_us"] = per(2000/scale, time.Microsecond, func() {
				cs, _ := lm.SessionConns()
				for _, c := range cs {
					c.Close()
				}
			})
		}
		lm.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		v[tc.name] = us
	}
	return nil
}

// probeMPC times Engine.Compare and CompareBatch(64) on a fork, over the
// in-process transport and over an mTLS mesh, and the dealer alone.
func probeMPC(v values, certDir string, scale int) error {
	diffs := []int64{5, -9, 3}
	batch := make([][]int64, 64)
	for i := range batch {
		batch[i] = []int64{int64(i), -40, 7}
	}
	lm, err := transport.NewLocalMesh(silos, transport.MeshOptions{TLS: transport.TestCertConfig(certDir, 0)})
	if err != nil {
		return err
	}
	defer lm.Close()
	for _, tc := range []struct {
		suffix string
		dial   func() (mpc.ConnSet, error)
	}{
		{"mem", nil},
		{"wire", func() (mpc.ConnSet, error) {
			conns, drain := lm.SessionConns()
			return mpc.ConnSet{Conns: conns, Drain: drain}, nil
		}},
	} {
		root, err := mpc.NewEngine(mpc.Params{
			Parties: silos, Mode: mpc.ModeProtocol, Seed: worldSeed,
			RoundTimeout: roundTimeout, Dial: tc.dial,
		})
		if err != nil {
			return err
		}
		e := root.Fork()
		n := 2000 / scale
		var cerr error
		m0 := readMem()
		v["mpc.compare_"+tc.suffix+"_us"] = per(n, time.Microsecond, func() {
			if _, err := e.Compare(diffs); err != nil {
				cerr = err
			}
		})
		if tc.suffix == "mem" {
			st := e.Stats()
			v["mpc.allocs_per_compare"] = float64(readMem().sub(m0).mallocs) / float64(n)
			v["mpc.rounds_per_compare"] = float64(st.Rounds) / float64(st.Compares)
			v["mpc.bytes_per_compare"] = float64(st.Bytes) / float64(st.Compares)
		}
		v["mpc.batch64_"+tc.suffix+"_us"] = per(500/scale+1, time.Microsecond, func() {
			if _, err := e.CompareBatch(batch); err != nil {
				cerr = err
			}
		})
		if tc.suffix == "wire" {
			v["mpc.fork_us"] = per(1000/scale, time.Microsecond, func() { root.Fork().Close() })
		}
		e.Close()
		root.Close()
		if cerr != nil {
			return fmt.Errorf("mpc probe (%s): %w", tc.suffix, cerr)
		}
	}
	d := mpc.NewDealer(silos, worldSeed)
	v["mpc.dealer_tuple_us"] = per(20000/scale, time.Microsecond, func() { d.CmpTuples() })
	return nil
}

// probePQ pushes 1024 items in batches of 8 and pops them all, with a
// plaintext comparator.
func probePQ(v values, scale int) {
	const items = 1024
	reps := 200/scale + 1
	var cmps int64
	ns := per(reps, time.Nanosecond, func() {
		q := pq.NewTMTree[int](func(a, b int) bool { return a < b }, 4)
		x := uint32(1)
		batch := make([]int, 8)
		for i := 0; i < items; i += len(batch) {
			for j := range batch {
				x = x*1664525 + 1013904223
				batch[j] = int(x >> 8)
			}
			q.PushBatch(batch)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		cmps = q.Counts().Total()
	})
	v["pq.tmtree_ns_per_op"] = ns / (2 * items)
	v["pq.tmtree_cmps_per_pop"] = float64(cmps) / items
}

// probes runs every micro-probe and the probes against the workload's own
// federation.
func (b *bench) probes(v values, scale int) error {
	dir, err := os.MkdirTemp("", "fedroad-bench-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := transport.GenerateTestCerts(dir, silos); err != nil {
		return err
	}
	if err := probeTransport(v, dir, scale); err != nil {
		return err
	}
	if err := probeMPC(v, dir, scale); err != nil {
		return err
	}
	probePQ(v, scale)

	gate := admit.New(8, nil)
	v["admit.acquire_ns"] = per(1000000/scale, time.Nanosecond, func() {
		if gate.Acquire() == nil {
			gate.Release()
		}
	})
	f := b.world.fed
	v["session.open_us"] = per(500/scale+1, time.Microsecond, func() { f.Session().Close() })
	t0 := time.Now()
	lb.Precompute(b.world.g, b.world.w0, b.world.shadow.silo,
		lb.SelectLandmarks(b.world.g, b.world.w0, 32, worldSeed), 0)
	v["lb.landmarks_ms"] = ms(time.Since(t0))
	return nil
}

// perLayerValues reduces the traced half of a run, the federation's own
// counters and the micro-probes to the per-layer ledger.
func (b *bench) perLayerValues(r *rawRun, scale int) (values, error) {
	v := values{}
	if err := b.probes(v, scale); err != nil {
		return nil, err
	}
	var wall, query, searched, queue, relax, sac, send, recv, attributed time.Duration
	var sacs, settled, qcmps, evals, rounds, wire, frames int64
	var computedOn, computedOff, hits, x, y []float64
	var applyMs, updateMs []float64
	n, all := 0, 0
	for _, ss := range r.clients {
		for _, s := range ss {
			switch {
			case s.write:
				applyMs = append(applyMs, ms(s.dur))
				updateMs = append(updateMs, ms(s.update.WallTime))
				continue
			case s.failed:
				continue
			}
			all++
			if s.hit {
				hits = append(hits, float64(s.dur))
			} else if s.traced {
				computedOn = append(computedOn, ms(s.dur))
			} else {
				computedOff = append(computedOff, ms(s.dur))
			}
			if !s.traced {
				continue
			}
			n++
			wall += s.dur
			if s.hit {
				attributed += s.dur // all of it is the cache's
				continue
			}
			query += s.query
			queue += s.stats.Phases.Queue
			relax += s.stats.Phases.Relax
			sac += s.stats.Phases.SACWait
			send += time.Duration(s.conn.sendNs)
			recv += time.Duration(s.conn.recvNs)
			frames += s.conn.frames
			sacs += s.stats.SAC.Compares
			rounds += s.stats.SAC.Rounds
			wire += s.stats.SAC.Bytes
			settled += int64(s.stats.SettledVertices)
			qcmps += s.stats.Queue.Total()
			evals += int64(s.stats.HeuristicEvals)
			x = append(x, float64(s.stats.SAC.Compares))
			y = append(y, ms(s.dur))
			// Attributed: the admission and cache layers' own time, and inside
			// the query what core's phase timers cover. A customization pass
			// reports no phases and is one call into fed: all of it is fed's.
			in := min(s.query, s.stats.Phases.Queue+s.stats.Phases.Relax)
			if s.kind == "refresh" {
				in = s.query
				applyMs = append(applyMs, ms(s.dur))
			} else {
				searched += s.query
			}
			attributed += s.dur - s.query + in
		}
	}
	if n > 0 && wall > 0 {
		fn, fw := float64(n), float64(wall)
		v["transport.send_share"] = float64(send) / fw
		v["transport.recv_wait_share"] = float64(recv) / fw
		v["mesh.frames_per_op"] = float64(frames) / fn
		v["core.sacs_per_op"] = float64(sacs) / fn
		v["core.settled_per_op"] = float64(settled) / fn
		v["core.queue_cmps_per_op"] = float64(qcmps) / fn
		if searched > 0 { // ops that are searches report core's phase timers
			v["mpc.self_share"] = float64(sac-send-recv) / fw
			v["core.sac_wait_share"] = float64(sac) / fw
			v["core.relax_share"] = float64(relax) / fw
			v["core.other_share"] = float64(searched-queue-relax) / fw
		}
		v["lb.heuristic_evals_per_op"] = float64(evals) / fn
		v["trace.coverage"] = float64(attributed) / fw
		v["model.sac_latency_r2"] = rSquared(x, y)
		// R·L + S/B with L half the measured mTLS lane round trip and B the
		// repo's modelled LAN bandwidth, over the measured time of the same ops.
		l := v["transport.lane_tls_rtt_us"] / 2 * 1e3 // ns
		pred := float64(rounds)*l + float64(wire)/mpc.DefaultLAN().Bandwidth*1e9
		v["model.pred_over_meas"] = pred / float64(query)
	}
	if len(computedOn) > 0 && len(computedOff) > 0 {
		v["trace.op_p50_ms"] = median(computedOn)
		v["trace.overhead_ratio"] = median(computedOn) / median(computedOff)
	}
	if len(hits) > 0 {
		v["cache.hit_ns"] = median(hits)
	}
	if len(applyMs) > 0 {
		v["fed.apply_traffic_ms"] = median(applyMs)
	}
	if len(updateMs) > 0 {
		v["ch.update_ms"] = median(updateMs)
	}
	if all > 0 {
		v["go.allocs_per_op"] = float64(r.mem.mallocs) / float64(all)
		v["go.alloc_kb_per_op"] = float64(r.mem.bytes) / 1024 / float64(all)
	}
	v["go.gc_pause_ms"] = ms(r.mem.pause)

	f := b.world.fed
	for _, st := range f.MeshStats() {
		v["mesh.reconnects"] += float64(st.Reconnects)
		v["mesh.heartbeat_misses"] += float64(st.HeartbeatMisses)
	}
	if f.HasIndex() {
		sk, ix := r.skeleton, r.index
		arcs := b.world.g.NumArcs() + sk.Shortcuts
		v["ch.skeleton_ms"] = ms(sk.WallTime)
		v["ch.skeleton_arcs"] = float64(arcs)
		v["ch.fill_ratio"] = float64(arcs) / float64(b.world.g.NumArcs())
		v["ch.customize_ms"] = ms(ix.WallTime)
		v["ch.customize_sacs"] = float64(ix.SAC.Compares)
		v["ch.customize_rounds"] = float64(ix.SAC.Rounds)
		v["ch.levels"] = float64(ix.Levels)
	}
	if b.cache != nil {
		cs, gs := b.cache.Stats(), b.gate.Stats()
		if tot := cs.Hits + cs.Misses + cs.Coalesced; tot > 0 {
			v["cache.hit_ratio"] = float64(cs.Hits) / float64(tot)
		}
		v["cache.coalesced"] = float64(cs.Coalesced)
		v["cache.evict_capacity"] = float64(cs.EvictedCapacity)
		v["cache.evict_stale"] = float64(cs.EvictedStale)
		v["admit.admitted"] = float64(gs.Admitted)
		v["admit.shed"] = float64(gs.Shed)
	}
	v["state.save_ms"] = ms(r.stateSave)
	v["state.restore_ms"] = ms(r.stateRestore)
	v["state.bytes"] = float64(r.stateBytes)
	return v, nil
}
