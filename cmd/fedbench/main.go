// Command fedbench regenerates the paper's evaluation tables and figures
// (§VIII). Every experiment prints the rows/series the corresponding table
// or figure reports; EXPERIMENTS.md records a full run.
//
// Usage:
//
//	fedbench [flags] all|fig1|tab1|fig7|fig8|fig9|tab2|fig10|fig11|fig12|ablate|bench|large
//
// Examples:
//
//	fedbench all                       # full suite at default scale
//	fedbench -datasets CAL-S fig7      # one dataset
//	fedbench -max-vertices 2000 all    # scaled-down quick run
//	fedbench -json BENCH_run.json bench  # machine-readable percentile report
//	fedbench -graph usa.frgb large     # scale tier on an imported network
//
// -graph loads an imported network (cmd/import-dimacs output, binary or
// text): with large it is the measured subject; with any other experiment it
// joins the dataset list. The large experiment is the opt-in scale tier for
// ≥10^6-vertex graphs — snapshot load time and peak heap vs CSR size,
// landmark precompute at workers={1,N}, plaintext query throughput — and
// writes BENCH_large.json.
//
// The bench experiment runs the comparative sweep and emits a JSON report
// (per-configuration latency percentiles plus mean Fed-SAC/round/byte
// counts) to the -json path — the format CI archives as BENCH_*.json. The
// -json flag also works with fig7/fig8, which run the same sweep. With
// -index, bench instead measures index derivation (witness build vs weight
// customization, one row each per dataset) and writes BENCH_build.json.
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

func main() {
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
		jsonOut   = flag.String("json", "", "write a machine-readable BENCH_*.json report (bench, fig7, fig8, large)")
		index     = flag.Bool("index", false, "with bench: benchmark index derivation (witness build vs customization) instead of the query sweep")
		profile   = flag.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
		graphFile = flag.String("graph", "", "bench an imported graph file (binary snapshot or text) alongside/instead of the synthetic datasets")
		workers   = flag.Int("workers", 0, "with large: parallel precompute workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fedbench [flags] all|fig1|tab1|fig7|fig8|fig9|tab2|fig10|fig11|fig12|ablate|bench|large")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var lvl traffic.Level
	switch strings.ToLower(*level) {
	case "free":
		lvl = traffic.Free
	case "slight":
		lvl = traffic.Slight
	case "moderate":
		lvl = traffic.Moderate
	case "heavy":
		lvl = traffic.Heavy
	default:
		fmt.Fprintf(os.Stderr, "unknown congestion level %q\n", *level)
		os.Exit(2)
	}
	mode := mpc.ModeIdeal
	if *protocol {
		mode = mpc.ModeProtocol
	}

	// The large tier loads the graph itself (it times the load); every other
	// experiment gets an imported -graph file injected as an extra dataset.
	if flag.Arg(0) == "large" {
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
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
		out := *jsonOut
		if out == "" {
			out = "BENCH_large.json"
		}
		if err := rep.WriteFile(out); err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", out)
		return
	}
	dsList := strings.Split(*datasets, ",")
	var external *expr.ExternalDataset
	if *graphFile != "" {
		g, w0, err := graph.LoadFile(*graphFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		if w0 == nil {
			w0 = make(graph.Weights, g.NumArcs())
			for a := range w0 {
				w0[a] = 1
			}
		}
		name := filepath.Base(*graphFile)
		external = &expr.ExternalDataset{Name: name, G: g, W0: w0}
		dsList = append(dsList, name)
		fmt.Printf("loaded %s: %d vertices, %d arcs\n", name, g.NumVertices(), g.NumArcs())
	}

	h := expr.New(expr.Config{
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
	})

	// -profile wraps the whole experiment in a CPU profile and snapshots the
	// heap at the end; stopProfile is called on every exit path (os.Exit
	// skips defers).
	stopProfile := func() {}
	if *profile != "" {
		cf, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
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
	var err error
	switch flag.Arg(0) {
	case "all":
		err = h.RunAll()
	case "fig1":
		var rows []expr.Fig1Row
		if rows, err = h.RunFig1(0, 0); err == nil {
			h.PrintFig1(rows)
		}
	case "tab1":
		var rows []expr.Tab1Row
		if rows, err = h.RunTab1(); err == nil {
			h.PrintTab1(rows)
		}
	case "fig7", "fig8":
		var res *expr.CompResult
		if res, err = h.RunComparative(); err == nil {
			if flag.Arg(0) == "fig7" {
				h.PrintFig7(res)
			} else {
				h.PrintFig8(res)
			}
			if err == nil && *jsonOut != "" {
				err = h.BenchReport(flag.Arg(0), res).WriteFile(*jsonOut)
			}
		}
	case "bench":
		if *index {
			var rep *expr.BuildBenchReport
			if rep, err = h.RunIndexBuildBench(); err == nil {
				h.PrintIndexBuildBench(rep)
				out := *jsonOut
				if out == "" {
					out = "BENCH_build.json"
				}
				if err = rep.WriteFile(out); err == nil {
					fmt.Printf("\nwrote %s\n", out)
				}
			}
			break
		}
		var res *expr.CompResult
		if res, err = h.RunComparative(); err == nil {
			h.PrintFig7(res)
			out := *jsonOut
			if out == "" {
				out = "BENCH_report.json"
			}
			if err = h.BenchReport("bench", res).WriteFile(out); err == nil {
				fmt.Printf("\nwrote %s\n", out)
			}
		}
	case "fig9":
		var res *expr.ScalResult
		if res, err = h.RunScalability(nil); err == nil {
			h.PrintFig9(res)
		}
	case "tab2":
		var rows []expr.Tab2Row
		if rows, err = h.RunTab2(); err == nil {
			h.PrintTab2(rows)
		}
	case "fig10":
		var comp *expr.CompResult
		if comp, err = h.RunComparative(); err == nil {
			h.PrintFig10(h.RunFig10(comp))
		}
	case "fig11":
		var res *expr.Fig11Result
		if res, err = h.RunFig11(0); err == nil {
			h.PrintFig11(res)
		}
	case "fig12":
		var res *expr.Fig12Result
		if res, err = h.RunFig12(); err == nil {
			h.PrintFig12(res)
		}
	case "ablate":
		var alphas []expr.AlphaRow
		if alphas, err = h.RunAlphaAblation(nil); err != nil {
			break
		}
		h.PrintAlphaAblation(alphas)
		var lms []expr.LandmarkRow
		if lms, err = h.RunLandmarkAblation(nil); err != nil {
			break
		}
		h.PrintLandmarkAblation(lms)
		var ests []expr.EstimatorRow
		if ests, err = h.RunEstimatorAblation(); err != nil {
			break
		}
		h.PrintEstimatorAblation(ests)
		var bats []expr.BatchRow
		if bats, err = h.RunBatchingAblation(); err != nil {
			break
		}
		h.PrintBatchingAblation(bats)
		var idxs []expr.IndexRow
		if idxs, err = h.RunIndexAblation(); err != nil {
			break
		}
		h.PrintIndexAblation(idxs)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", flag.Arg(0))
		os.Exit(2)
	}
	stopProfile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
