// Command fedbench regenerates the paper's evaluation tables and figures
// (§VIII). Every experiment prints the rows/series the corresponding table
// or figure reports; EXPERIMENTS.md records a full run. One ordered list
// holds every experiment: `fedbench <name>` runs one entry, and `fedbench
// all` runs the paper's tables and figures (fig1 through fig12) in list
// order.
//
// Usage:
//
//	fedbench [flags] all|fig1|tab1|fig7|fig8|fig9|tab2|fig10|fig11|fig12|ablate|build|large
//
// Examples:
//
//	fedbench all                       # full suite at default scale
//	fedbench -datasets CAL-S fig7      # one dataset
//	fedbench -max-vertices 2000 all    # scaled-down quick run
//	fedbench build                     # index derivation, writes BENCH_build.json
//	fedbench -graph usa.frgb large     # scale tier on an imported network
//
// Printed times are measured local time plus the network time the paper's
// cost model R·(L+S/B) predicts from the measured rounds and bytes, with L
// and B from -latency and -bandwidth. Measured latency under load is the repo
// benchmark's job (benchmark/), not this command's.
//
// -graph loads an imported network (cmd/import-dimacs output, binary or
// text): with large it is the measured subject; with any other experiment it
// joins the dataset list. The large experiment is the opt-in scale tier for
// ≥10^6-vertex graphs — snapshot load time and peak heap vs CSR size,
// landmark precompute at workers={1,N}, plaintext query throughput — and
// writes BENCH_large.json.
//
// The build experiment measures index derivation (witness build vs weight
// customization, one row each per dataset) and writes BENCH_build.json, or
// the -json path.
//
// -profile <prefix> wraps any experiment in a CPU profile and a final heap
// snapshot (<prefix>.cpu.pprof, <prefix>.heap.pprof) — the mode used to hunt
// per-round allocation and serialization overhead in the MPC hot path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

var (
	datasets  = flag.String("datasets", "CAL-S,BJ-S,FLA-S", "comma-separated dataset names")
	silos     = flag.Int("silos", 3, "number of data silos")
	level     = flag.String("level", "moderate", "congestion level: free|slight|moderate|heavy")
	queries   = flag.Int("queries", 20, "queries per hop group")
	groups    = flag.Int("groups", 5, "number of hop groups")
	landmarks = flag.Int("landmarks", 32, "landmark count")
	seed      = flag.Uint64("seed", 1, "random seed")
	maxV      = flag.Int("max-vertices", 0, "cap dataset sizes (0 = full scale)")
	protocol  = flag.Bool("protocol", false, "run the full MPC protocol instead of the calibrated ideal mode")
	latency   = flag.Duration("latency", 200*time.Microsecond, "modeled one-way network latency")
	bandwidth = flag.Float64("bandwidth", 1e9, "modeled bandwidth in bytes/s")
	jsonOut   = flag.String("json", "", "report path for build (default BENCH_build.json) and large (default BENCH_large.json)")
	profile   = flag.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
	graphFile = flag.String("graph", "", "bench an imported graph file (binary snapshot or text) alongside/instead of the synthetic datasets")
	workers   = flag.Int("workers", 0, "with large: parallel precompute workers (0 = GOMAXPROCS)")

	lvl traffic.Level // -level, parsed
)

// experiment is one fedbench command: it runs its experiment on the harness
// and prints it. large loads -graph itself and gets no harness.
type experiment struct {
	name string
	all  bool // part of `fedbench all`
	run  func(h *expr.Harness) error
}

// experiments lists every command in the order `fedbench all` runs its
// entries.
var experiments = []experiment{
	{"fig1", true, func(h *expr.Harness) error { return printed(h.PrintFig1)(h.RunFig1(0, 0)) }},
	{"tab1", true, func(h *expr.Harness) error { return printed(h.PrintTab1)(h.RunTab1()) }},
	{"fig7", true, (*expr.Harness).Fig7},
	{"fig8", true, (*expr.Harness).Fig8},
	{"fig9", true, (*expr.Harness).Fig9},
	{"tab2", true, func(h *expr.Harness) error { return printed(h.PrintTab2)(h.RunTab2()) }},
	{"fig10", true, (*expr.Harness).Fig10},
	{"fig11", true, func(h *expr.Harness) error { return printed(h.PrintFig11)(h.RunFig11(0)) }},
	{"fig12", true, (*expr.Harness).Fig12},
	{"ablate", false, (*expr.Harness).Ablate},
	{"build", false, build},
	{"large", false, large},
}

// printed passes a Run method's results to its Print method unless the run
// failed.
func printed[R any](print func(R)) func(R, error) error {
	return func(r R, err error) error {
		if err == nil {
			print(r)
		}
		return err
	}
}

// runAll runs the entries of experiments marked all, in list order.
func runAll(h *expr.Harness) error {
	for _, e := range experiments {
		if !e.all {
			continue
		}
		if err := e.run(h); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// build measures index derivation and writes its report.
func build(h *expr.Harness) error {
	rep, err := h.RunIndexBuildBench()
	if err != nil {
		return err
	}
	h.PrintIndexBuildBench(rep)
	return report("BENCH_build.json", rep)
}

// large runs the scale tier on -graph, which it loads and times itself.
func large(*expr.Harness) error {
	rep, err := expr.RunLargeBench(expr.LargeBenchConfig{
		Path:      *graphFile,
		Silos:     *silos,
		Landmarks: *landmarks,
		Queries:   *queries,
		Workers:   *workers,
		Seed:      *seed,
		Level:     lvl,
	})
	if err != nil {
		return err
	}
	rep.Print(os.Stdout)
	return report("BENCH_large.json", rep)
}

// report writes a build or large report to -json, or else to def.
func report(def string, rep any) error {
	out := *jsonOut
	if out == "" {
		out = def
	}
	if err := expr.WriteReport(out, rep); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// harness builds the experiment harness from the flags; an imported -graph
// file joins the dataset list.
func harness() (*expr.Harness, error) {
	mode := mpc.ModeIdeal
	if *protocol {
		mode = mpc.ModeProtocol
	}
	dsList := strings.Split(*datasets, ",")
	var external *expr.ExternalDataset
	if *graphFile != "" {
		g, w0, err := graph.LoadFile(*graphFile)
		if err != nil {
			return nil, err
		}
		w0, _ = graph.UnitIfMissing(g, w0)
		name := filepath.Base(*graphFile)
		external = &expr.ExternalDataset{Name: name, G: g, W0: w0}
		dsList = append(dsList, name)
		fmt.Printf("loaded %s: %d vertices, %d arcs\n", name, g.NumVertices(), g.NumArcs())
	}
	return expr.New(expr.Config{
		Datasets:        dsList,
		Silos:           *silos,
		Level:           lvl,
		QueriesPerGroup: *queries,
		NumGroups:       *groups,
		Landmarks:       *landmarks,
		Seed:            *seed,
		Mode:            mode,
		Net:             mpc.NetworkModel{Latency: *latency, Bandwidth: *bandwidth},
		MaxVertices:     *maxV,
		External:        external,
		Out:             os.Stdout,
	}), nil
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
	os.Exit(code)
}

func main() {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fedbench [flags] "+strings.Join(names, "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}
	var err error
	if lvl, err = traffic.ParseLevel(*level); err != nil {
		fail(2, err)
	}
	e := experiment{name: "all", run: runAll}
	for _, x := range experiments {
		if x.name == flag.Arg(0) {
			e = x
		}
	}
	if e.name != flag.Arg(0) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var h *expr.Harness
	if e.name != "large" {
		if h, err = harness(); err != nil {
			fail(1, err)
		}
	}

	// -profile wraps the whole experiment in a CPU profile and snapshots the
	// heap at the end; stopProfile is called on every exit path (os.Exit
	// skips defers).
	stopProfile := func() {}
	if *profile != "" {
		cf, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fail(1, err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fail(1, err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			cf.Close()
			hf, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(hf); err != nil {
				fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			}
			hf.Close()
			fmt.Printf("wrote %s.cpu.pprof and %s.heap.pprof\n", *profile, *profile)
		}
	}

	start := time.Now()
	err = e.run(h)
	stopProfile()
	if err != nil {
		fail(1, err)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
