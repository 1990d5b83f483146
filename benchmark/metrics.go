package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one measured value with its unit, as BENCHMARK.json names it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer list every metric the benchmark prints, with its
// unit. BENCHMARK.json must name exactly these (bench_test.go checks it).
//
// The end-to-end metrics are those that repeat within their bound from run to
// run on the host this was written on. The window's timings do not (README.md,
// "Repeatability"), so they are per-layer metrics, which have no bound; they
// are printed by untraced runs too.
var endToEnd = [][2]string{
	{"rounds_per_op", "count"},
	{"wire_bytes_per_op", "bytes"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// windowTimings are the first entries of perLayer.
var windowTimings = [][2]string{
	{"window.op_p50_ms", "ms"},
	{"window.op_p90_ms", "ms"},
	{"window.ops_per_s", "1/s"},
	{"window.cpu_ms_per_op", "ms"},
}

var perLayer = append(windowTimings[:len(windowTimings):len(windowTimings)], [][2]string{
	{"transport.mem_rtt_us", "us"},
	{"transport.lane_rtt_us", "us"},
	{"transport.lane_tls_rtt_us", "us"},
	{"transport.lane_open_us", "us"},
	{"transport.send_share", "ratio"},
	{"transport.recv_wait_share", "ratio"},
	{"mesh.frames_per_op", "count"},
	{"mesh.reconnects", "count"},
	{"mesh.heartbeat_misses", "count"},
	{"mpc.compare_mem_us", "us"},
	{"mpc.compare_wire_us", "us"},
	{"mpc.batch64_mem_us", "us"},
	{"mpc.batch64_wire_us", "us"},
	{"mpc.dealer_tuple_us", "us"},
	{"mpc.fork_us", "us"},
	{"mpc.allocs_per_compare", "count"},
	{"mpc.rounds_per_compare", "count"},
	{"mpc.bytes_per_compare", "bytes"},
	{"mpc.self_share", "ratio"},
	{"core.sacs_per_op", "count"},
	{"core.settled_per_op", "count"},
	{"core.queue_cmps_per_op", "count"},
	{"core.sac_wait_share", "ratio"},
	{"core.relax_share", "ratio"},
	{"core.other_share", "ratio"},
	{"pq.tmtree_ns_per_op", "ns"},
	{"pq.tmtree_cmps_per_pop", "count"},
	{"lb.heuristic_evals_per_op", "count"},
	{"lb.landmarks_ms", "ms"},
	{"ch.skeleton_ms", "ms"},
	{"ch.skeleton_arcs", "count"},
	{"ch.fill_ratio", "ratio"},
	{"ch.customize_ms", "ms"},
	{"ch.customize_sacs", "count"},
	{"ch.customize_rounds", "count"},
	{"ch.levels", "count"},
	{"ch.update_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesced", "count"},
	{"cache.evict_capacity", "count"},
	{"cache.evict_stale", "count"},
	{"cache.hit_ns", "ns"},
	{"admit.acquire_ns", "ns"},
	{"admit.admitted", "count"},
	{"admit.shed", "count"},
	{"session.open_us", "us"},
	{"fed.apply_traffic_ms", "ms"},
	{"state.save_ms", "ms"},
	{"state.restore_ms", "ms"},
	{"state.bytes", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_pause_ms", "ms"},
	{"model.sac_latency_r2", "ratio"},
	{"model.pred_over_meas", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.op_p50_ms", "ms"},
}...)

// values is a set of measured metrics by name.
type values map[string]float64

// named pairs the listed metrics with their measured values; a metric the
// workload's layers do no work for reads 0.
func named(list [][2]string, v values) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, nu := range list {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation; xs is sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// kept returns, per client, the samples that count towards per-op counts:
// whole passes only, so that every run — whatever its seed and however far it
// got — reduces the same ops; where the clients' passes are aligned, the same
// number of passes from each. wholePasses is false when a client did not
// finish one pass and all its samples had to be kept.
func (b *bench) kept(r *rawRun) (out [][]sample, wholePasses bool) {
	fewest := math.MaxInt
	for _, ss := range r.clients {
		fewest = min(fewest, len(ss)/b.pass)
	}
	wholePasses = true
	for _, ss := range r.clients {
		passes := len(ss) / b.pass
		if b.epochs != nil {
			passes = fewest
		}
		if passes > 0 {
			ss = ss[:passes*b.pass]
		} else {
			wholePasses = false
		}
		out = append(out, ss)
	}
	return out, wholePasses
}

// windowValues reduces a run to the end-to-end metrics and the window's
// timings, and returns the number of primary ops the per-op counts rest on,
// the number of latency samples under the percentiles, and whether the counts
// are over whole passes. verify must have run: an op with a wrong answer
// counts as failed.
//
// Per-op counts are over the whole passes the clients completed. The timings
// are plain statistics of the window: percentiles over every timed op, correct
// ops and CPU time over its whole length.
func (b *bench) windowValues(r *rawRun, setup []float64) (v values, ops, latencies int, wholePasses bool) {
	kept, wholePasses := b.kept(r)
	var rounds, bytes []float64
	for _, ss := range kept {
		var sacRounds, sacBytes int64
		n := 0
		for _, s := range ss {
			if s.write { // its communication is part of what a served request costs
				sacRounds += s.update.SAC.Rounds
				sacBytes += s.update.SAC.Bytes
				continue
			}
			n++
			sacRounds += s.stats.SAC.Rounds
			sacBytes += s.stats.SAC.Bytes
		}
		if n == 0 {
			continue
		}
		ops += n
		rounds = append(rounds, float64(sacRounds)/float64(n))
		bytes = append(bytes, float64(sacBytes)/float64(n))
	}
	var lat []float64
	primary, correct := 0, 0
	for _, ss := range r.clients {
		for _, s := range ss {
			if s.write {
				continue
			}
			primary++
			if s.failed {
				continue
			}
			correct++
			if !s.hit { // a hit's latency is cache.hit_ns; it counts in window.ops_per_s
				lat = append(lat, ms(s.dur))
			}
		}
	}
	sort.Float64s(lat)
	v = values{
		"window.op_p50_ms": quantile(lat, 0.5),
		"window.op_p90_ms": quantile(lat, 0.9),
		"window.ops_per_s": float64(correct) / r.window.Seconds(),
		"peak_rss_mb":      r.peakRSS,
		"setup_s":          median(setup),
		// Clients walk different universes: the mean of their means does not
		// depend on how many passes each happened to finish.
		"rounds_per_op":     mean(rounds),
		"wire_bytes_per_op": mean(bytes),
	}
	if primary > 0 {
		v["window.cpu_ms_per_op"] = ms(r.cpu) / float64(primary)
	}
	return v, ops, len(lat), wholePasses
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads VmHWM, the process's peak resident set, in MiB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS makes VmHWM start over (Linux: "5" to clear_refs), so that
// repeated runs in one process each report their own peak. Best effort.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memDelta is heap activity between two readings.
type memDelta struct {
	mallocs, bytes uint64
	pause          time.Duration
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, time.Duration(m.PauseTotalNs)}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pause - b.pause}
}

// rSquared is the coefficient of determination of y regressed on x.
func rSquared(x, y []float64) float64 {
	n := float64(len(x))
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov * cov / (vx * vy)
}
