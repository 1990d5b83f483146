package expr

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// BuildBenchRow measures one index derivation on one dataset: the
// witness-pruned federated build, or (Customize) the weight-customization
// sweep over a plaintext-contracted skeleton.
type BuildBenchRow struct {
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Arcs     int    `json:"arcs"`
	// Customize marks the weight-customization row: the topology skeleton is
	// contracted once in plaintext and only the per-level batched Fed-SAC
	// weight sweep runs — the MPC cost of refreshing the index after a
	// traffic batch. Its MPCRounds must stay far below the build row's.
	Customize bool `json:"customize,omitempty"`

	WallMs        float64 `json:"wall_ms"`
	OrderingMs    float64 `json:"ordering_ms"`
	ContractionMs float64 `json:"contraction_ms"`
	// SimNetMs is the MPC network time the paper's cost model (Config.Net)
	// predicts from the measured rounds and bytes — a prediction, not a
	// measurement; TimeMs = WallMs + SimNetMs is the estimated end-to-end
	// build time on the paper's testbed, the same convention the query tables
	// use. Round batching shows up here: fewer rounds, less SimNetMs.
	SimNetMs float64 `json:"sim_net_ms"`
	TimeMs   float64 `json:"time_ms"`

	Shortcuts int   `json:"shortcuts"`
	Compares  int64 `json:"fed_sacs"`
	MPCRounds int64 `json:"mpc_rounds"`
	// RoundsSaved is what batching avoids: Compares × mpc.RoundsPerCompare
	// (every decision its own protocol instance) minus MPCRounds.
	RoundsSaved       int64   `json:"mpc_rounds_saved"`
	ContractionRounds int     `json:"contraction_rounds"`
	AvgRoundWidth     float64 `json:"avg_round_width"`
}

// BuildReport is the BENCH_build.json document.
type BuildReport struct {
	Experiment string          `json:"experiment"`
	Silos      int             `json:"silos"`
	Rows       []BuildBenchRow `json:"rows"`
}

// WriteReport writes a report (BuildReport, LargeReport) to path as indented
// JSON.
func WriteReport(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("expr: report: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("expr: report %s: %w", path, err)
	}
	return f.Close()
}

// RunIndexBuildBench measures both index derivations on every configured
// dataset, each from an identical fresh federation: the witness-pruned
// build (the one-off cost), then the customization sweep over a skeleton
// contracted in plaintext (the recurring cost of refreshing the index per
// traffic version). Rows record wall time, phase split and the Fed-SAC round
// economics; the counts are a function of dataset and seed alone.
func (h *Harness) RunIndexBuildBench() (*BuildReport, error) {
	rep := &BuildReport{Experiment: "index-build", Silos: h.cfg.Silos}
	for _, name := range h.cfg.Datasets {
		g, w0, spec := h.generate(name)
		for _, customize := range []bool{false, true} {
			sets := traffic.SiloWeights(w0, h.cfg.Silos, h.cfg.Level, h.cfg.Seed+spec.Seed)
			f, err := fed.New(g, w0, sets, mpc.Params{Mode: h.cfg.Mode, Seed: h.cfg.Seed})
			if err != nil {
				return nil, err
			}
			var x *ch.Index
			if customize {
				var sk *ch.Skeleton
				if sk, err = ch.BuildSkeleton(g); err == nil {
					x, err = ch.Customize(f, sk)
				}
			} else {
				x, err = ch.Build(f)
			}
			if err != nil {
				return nil, fmt.Errorf("expr: build bench %s customize=%v: %w", name, customize, err)
			}
			st := x.BuildStatistics()
			net := h.cfg.Net.Predict(st.SAC, f.P())
			rep.Rows = append(rep.Rows, BuildBenchRow{
				Dataset:           name,
				Vertices:          g.NumVertices(),
				Arcs:              g.NumArcs(),
				Customize:         customize,
				WallMs:            float64(st.WallTime.Microseconds()) / 1e3,
				OrderingMs:        float64(st.OrderingTime.Microseconds()) / 1e3,
				ContractionMs:     float64(st.ContractionTime.Microseconds()) / 1e3,
				SimNetMs:          float64(net.Microseconds()) / 1e3,
				TimeMs:            float64((st.WallTime + net).Microseconds()) / 1e3,
				Shortcuts:         st.Shortcuts,
				Compares:          st.SAC.Compares,
				MPCRounds:         st.SAC.Rounds,
				RoundsSaved:       st.RoundsSaved,
				ContractionRounds: st.Rounds,
				AvgRoundWidth:     st.AvgRoundWidth,
			})
		}
	}
	return rep, nil
}

// PrintIndexBuildBench renders the Table II-style construction comparison.
// "unbatched" is computed, not run: every Fed-SAC as its own protocol
// instance costs exactly mpc.RoundsPerCompare rounds.
func (h *Harness) PrintIndexBuildBench(rep *BuildReport) {
	h.printf("Index derivation: witness build vs customization (%d silos)\n", rep.Silos)
	w := h.tab()
	fmt.Fprintln(w, "dataset\tmode\ttime\twall\tsimnet\tshortcuts\tFed-SACs\tMPC rounds\tunbatched rounds\tcontraction rounds\tavg width")
	for _, r := range rep.Rows {
		mode := "build"
		if r.Customize {
			mode = "customize"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Dataset, mode,
			fmtDuration(time.Duration(r.TimeMs*1e6)),
			fmtDuration(time.Duration(r.WallMs*1e6)),
			fmtDuration(time.Duration(r.SimNetMs*1e6)),
			r.Shortcuts, r.Compares, r.MPCRounds, r.Compares*int64(mpc.RoundsPerCompare),
			r.ContractionRounds, r.AvgRoundWidth)
	}
	w.Flush()
	h.printf("\n")
}
