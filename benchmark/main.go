// Command benchmark is the repository's benchmark: four closed-loop workloads
// over a 3-silo protocol-mode federation, every answer checked against
// plaintext Dijkstra on the benchmark's own copy of the weights. See
// README.md. It is one OS process: it spawns nothing, and everything it opens
// is closed before it exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// envelope says what was measured where; it is printed before the result and
// written into the trace file.
type envelope struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Silos      int     `json:"silos"`
	Transport  string  `json:"transport"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	// Ops counts what the window held: primary ops issued, those that count
	// towards per-op metrics (whole passes), the latency samples under
	// window.op_p50_ms and window.op_p90_ms, and writes.
	Ops        int     `json:"ops"`
	OpsKept    int     `json:"ops_kept"`
	Latencies  int     `json:"latency_samples"`
	Writes     int     `json:"writes"`
	WholePass  bool    `json:"whole_passes"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	WindowSecs float64 `json:"window_s"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // the driver's checkout is not a git repository
}

// outcome is one run of one workload.
type outcome struct {
	env      envelope
	window   values // the end-to-end metrics and the window's timings
	layers   values // traced runs only
	reasons  []string
	trace    string
	rawTrace [][]sample
}

// runOnce sets the workload up (setupReps times, keeping the last), runs its
// window, checks every answer, and reduces the run to metrics.
func runOnce(name string, sz sizes, seed int64, seconds float64, traced bool, perturb func(*bench)) (*outcome, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var b *bench
	var setup []float64
	// setup_s is the median of the set-ups. Cheap set-ups repeat more often,
	// while they take under two seconds in all: a 0.2 s set-up is moved by one
	// scheduling hiccup far more than a 2 s one.
	began := time.Now()
	for rep := 0; rep < sz.setupReps || (rep < sz.setupRepsMax && time.Since(began) < 2*time.Second); rep++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(name, sz, seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer b.close()
	if perturb != nil {
		perturb(b)
	}

	r := b.window(time.Duration(seconds*float64(time.Second)), tr)
	attempted, failed, reasons := b.verify(r)
	window, kept, latencies, whole := b.windowValues(r, setup)
	o := &outcome{window: window, reasons: reasons}
	o.env = envelope{
		Workload: name, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Silos: silos, Transport: b.world.transport(), Seed: seed, Seconds: seconds,
		Traced: traced, Clients: len(b.clients), OpsKept: kept, Latencies: latencies, WholePass: whole,
		Attempted: attempted, Failed: failed, WindowSecs: r.window.Seconds(),
	}
	for _, ss := range r.clients {
		for _, s := range ss {
			if s.write {
				o.env.Writes++
			} else {
				o.env.Ops++
			}
		}
	}
	if traced {
		var err error
		if o.layers, err = b.perLayerValues(r, sz.probeScale); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, nu := range windowTimings {
			o.layers[nu[0]] = window[nu[0]]
		}
		o.rawTrace = r.clients
	}
	return o, nil
}

// bounds reads the regression bounds from BENCHMARK.json in the working
// directory; without the file the repeat report prints spreads only.
func bounds() map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// reportRepeats prints, per end-to-end metric and window timing, min/median/max
// over the runs and the spread the driver computes: the distance between the
// first and the third quartile as a share of the median. Only the end-to-end
// metrics have a bound.
func reportRepeats(name string, runs []values) {
	bd := bounds()
	fmt.Printf("repeatability of %s over %d runs (spread = IQR/median)\n", name, len(runs))
	fmt.Printf("  %-20s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
	for _, nu := range append(endToEnd[:len(endToEnd):len(endToEnd)], windowTimings...) {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r[nu[0]]
		}
		sort.Float64s(xs)
		med := quantile(xs, 0.5)
		spread := 0.0
		if med != 0 && len(xs) > 1 {
			spread = (quartile(xs, 3) - quartile(xs, 1)) / med
		}
		bound := "none"
		if b, ok := bd[nu[0]]; ok {
			bound = fmt.Sprintf("%.2f", b)
		}
		fmt.Printf("  %-20s %12.4f %12.4f %12.4f %8.4f %6s\n",
			nu[0], xs[0], med, xs[len(xs)-1], spread, bound)
	}
}

// quartile is the k-th quartile of xs as Python's statistics.quantiles(xs,
// n=4) gives it; xs is sorted and has at least two values.
func quartile(xs []float64, k int) float64 {
	pos := float64(k)*float64(len(xs)+1)/4 - 1
	lo := min(max(int(math.Floor(pos)), 0), len(xs)-2)
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "decides op order and traffic batches")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer ledger and writes benchmark/out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run each workload this many times with seeds seed, seed+1, ... and report the spread")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	// The watchdog turns a hang into an exit the driver can see. Every wait
	// in set-up, window and probes is bounded by the round timeout, so it
	// only fires on a bug.
	budget := time.Duration(len(names)**repeat) * (150 * time.Second)
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up\n", budget)
		os.Exit(2)
	})
	defer watchdog.Stop()

	code := 0
	for _, name := range names {
		var runs []values
		for i := 0; i < *repeat; i++ {
			resetPeakRSS()
			o, err := runOnce(name, fullSizes, *seed+int64(i), *seconds, *trace == 1, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			runs = append(runs, o.window)
			if c := emit(o); code == 0 {
				code = c
			}
		}
		if *repeat > 1 {
			reportRepeats(name, runs)
		}
	}
	return code
}

// emit prints one run: envelope, tables, and as the last line the result
// object. It returns the exit code: 0, 3 when the trace could not be written,
// 4 when an operation failed or answered wrongly.
func emit(o *outcome) int {
	code := 0
	if o.env.Failed > 0 {
		code = 4
	}
	res := result{Correct: o.env.Failed == 0, Attempted: o.env.Attempted, Failed: o.env.Failed}
	if o.env.Traced {
		path, err := writeTrace("benchmark/out", o.env.Workload, o.env, o.rawTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing trace: %v\n", err)
			code = 3
		}
		o.trace = path
		res.Metrics = named(perLayer, o.layers)
	} else {
		res.Metrics = named(endToEnd, o.window)
	}
	env, _ := json.Marshal(o.env)
	fmt.Printf("envelope %s\n", env)
	for _, why := range o.reasons {
		fmt.Printf("FAILED %s\n", why)
	}
	printTable("end-to-end", endToEnd, o.window)
	if o.env.Traced {
		printTable("per-layer ledger (passes alternate tracing off and on; micro-probes); trace: "+o.trace, perLayer, o.layers)
	} else {
		printTable("the window's timings (per-layer metrics: no bound)", windowTimings, o.window)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return code
}

// printTable writes name, value and unit of each listed metric, one per line.
func printTable(title string, list [][2]string, v values) {
	fmt.Println(title)
	names := make([]string, 0, len(list))
	units := map[string]string{}
	for _, nu := range list {
		names = append(names, nu[0])
		units[nu[0]] = nu[1]
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, v[n], units[n])
	}
}
