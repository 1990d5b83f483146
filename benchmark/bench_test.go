package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	fedroad "repro"
	"repro/internal/graph"
)

// spec mirrors the parts of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram: BENCHMARK.json names exactly the workloads and the
// metrics (with their units) that the program prints.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want [][2]string, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		have := map[string]string{}
		for _, m := range got {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q: name or unit %q outside the allowed alphabet", kind, m.Name, m.Unit)
			}
			if _, dup := have[m.Name]; dup {
				t.Errorf("%s %q listed twice", kind, m.Name)
			}
			have[m.Name] = m.Unit
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better is %q", kind, m.Name, m.Better)
			}
			// The bounds are fixed: a metric that does not repeat within its
			// bound gets a longer run or becomes a per-layer metric. setup_s
			// is the one the contract gives the largest bound.
			want := 0.10
			switch m.Name {
			case "rounds_per_op", "wire_bytes_per_op":
				want = 0.02
			case "setup_s":
				want = 0.25
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != want) {
				t.Errorf("%s %q: bound missing, unexpected or not %v", kind, m.Name, want)
			}
		}
		for _, nu := range want {
			if have[nu[0]] != nu[1] {
				t.Errorf("%s %q: the program prints unit %q, BENCHMARK.json says %q", kind, nu[0], nu[1], have[nu[0]])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
}

// TestSmoke runs every workload untraced and traced at smoke-test sizes: no
// op may fail, every metric must be measured, and the trace must hold an op
// span with its layer children.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o, err := runOnce(name, tinySizes, 1, 0.3, traced, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.env.Failed != 0 || o.env.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", name, traced, o.env.Failed, o.env.Attempted, o.reasons)
			}
			for _, list := range [][][2]string{endToEnd, windowTimings} {
				for _, nu := range list {
					if !(o.window[nu[0]] > 0) {
						t.Errorf("%s traced=%v: %s is %v, must be positive", name, traced, nu[0], o.window[nu[0]])
					}
				}
			}
			if !traced {
				continue
			}
			// Under the race detector a short window may hold no traced op
			// that ran a query (the first block of ops is untraced, and
			// route_hot's may all be cache hits).
			computed := false
			for _, ss := range o.rawTrace {
				for _, s := range ss {
					computed = computed || (s.traced && s.query > 0)
				}
			}
			for _, must := range []string{"transport.lane_tls_rtt_us", "mpc.compare_wire_us", "pq.tmtree_ns_per_op", "trace.coverage"} {
				if !(o.layers[must] > 0) && (computed || must != "trace.coverage") {
					t.Errorf("%s: per-layer metric %s is %v, must be positive", name, must, o.layers[must])
				}
			}
			path, err := writeTrace(t.TempDir(), name, o.env, o.rawTrace)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, sp := range file.Spans {
				names[sp.Name] = true
				if sp.Parent == "" && !strings.HasPrefix(sp.ID, name+"/") {
					t.Errorf("%s: root span id %q does not start with the workload", name, sp.ID)
				}
			}
			for _, must := range []string{"session.query", "mpc.sac", "transport.recv"} {
				if computed && !names[must] {
					t.Errorf("%s: trace has no %s span (has %v)", name, must, names)
				}
			}
		}
	}
}

// TestHotCountersRepeat: route_hot's per-op counts do not depend on the seed
// or on how the clients interleave, which the bound on them relies on.
func TestHotCountersRepeat(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var first values
	for seed := int64(1); seed <= 2; seed++ {
		o, err := runOnce("route_hot", tinySizes, seed, 0.5, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.env.Failed != 0 {
			t.Fatalf("seed %d: %d failed: %v", seed, o.env.Failed, o.reasons)
		}
		if !o.env.WholePass {
			t.Skip("the window held no whole pass (race detector, slow host)")
		}
		if first == nil {
			first = o.window
			continue
		}
		for _, m := range []string{"rounds_per_op", "wire_bytes_per_op"} {
			if a, b := first[m], o.window[m]; math.Abs(a-b) > 0.005*a {
				t.Errorf("%s: %v with seed 1, %v with seed %d", m, a, b, seed)
			}
		}
	}
}

// TestOracleCanFail changes one weight of the shadow copy behind the
// federation's back: the run must then report failed operations.
func TestOracleCanFail(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"route_wire", "knn_mem"} {
		o, err := runOnce(name, tinySizes, 1, 0.3, false, func(b *bench) {
			// Make the last arc of a true shortest path of client 0's first
			// query almost free — to its target, or for kNN to the nearest
			// neighbour: the true answer gets cheaper, the federation's not.
			od := odUniverse(b.world.g, tinySizes.universe, 0)[0]
			w := b.world.shadow.at(0)
			tree := graph.Dijkstra(b.world.g, w, od[0])
			target := od[1]
			if name == "knn_mem" {
				for v, d := range tree.Dist {
					if fedroad.Vertex(v) != od[0] && d < tree.Dist[target] {
						target = fedroad.Vertex(v)
					}
				}
			}
			a := tree.PArc[target]
			if w[a] < 2 {
				t.Fatalf("arc %d weighs %d, cannot be made cheaper", a, w[a])
			}
			b.world.shadow.perturb(a, 1-w[a])
		})
		if err != nil {
			t.Fatal(err)
		}
		if o.env.Failed == 0 {
			t.Errorf("%s: a wrong shadow weight went unnoticed over %d ops", name, o.env.Attempted)
		}
	}
}

// TestShadowFollowsTraffic: the shadow's sums equal the federation's weights
// after traffic batches, at every version.
func TestShadowFollowsTraffic(t *testing.T) {
	g, w0 := fedroad.GenerateGridNetwork(4, 4, worldSeed)
	sw := fedroad.SimulateCongestion(w0, silos, fedroad.Moderate, worldSeed)
	sh := newShadow(g, sw)
	ups := []fedroad.TrafficUpdate{{Silo: 1, Arc: 3, TravelMs: 777}, {Silo: 1, Arc: 3, TravelMs: 900}, {Silo: 0, Arc: 5, TravelMs: 50}}
	sh.apply(1, ups)
	for _, u := range ups {
		sw[u.Silo][u.Arc] = u.TravelMs
	}
	want := graph.JointWeights(sw)
	for a, w := range sh.at(1) {
		if w != want[a] {
			t.Fatalf("arc %d: shadow %d, silos sum to %d", a, w, want[a])
		}
	}
	if sh.at(0)[3] == sh.at(1)[3] {
		t.Fatal("version 0 was overwritten by version 1")
	}
}

// listeners counts this process's listening TCP sockets.
func listeners(t *testing.T) int {
	t.Helper()
	listening := map[string]bool{}
	for _, f := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			if fs := strings.Fields(line); len(fs) > 9 && fs[3] == "0A" {
				listening[fs[9]] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, fd := range fds {
		if l, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil {
			if ino, ok := strings.CutPrefix(l, "socket:["); ok && listening[strings.TrimSuffix(ino, "]")] {
				n++
			}
		}
	}
	return n
}

// TestLeavesNothingBehind: after a full traced run of every workload no
// goroutine, listening socket or temp directory of the benchmark remains.
func TestLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	goroutines, socks := runtime.NumGoroutine(), listeners(t)
	for _, name := range workloadNames {
		if _, err := runOnce(name, tinySizes, 2, 0.2, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
	if n := listeners(t); n != socks {
		t.Errorf("%d listening sockets before, %d after", socks, n)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in the temp directory: %s", e.Name())
	}
}
