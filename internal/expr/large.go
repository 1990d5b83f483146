package expr

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/graph"
	"repro/internal/peakmem"
	"repro/internal/traffic"
)

// The large-graph bench tier characterizes the ingestion-and-scale layer on
// continent-sized networks (≥10^6 vertices): snapshot load time and peak
// memory against the resident CSR size, and plaintext point-to-point query
// throughput. It is deliberately federation-free — MPC index construction
// and Fed-AMPS routes at this scale are a different (open) work item — so
// the numbers isolate the load path.

// LargeBenchConfig configures RunLargeBench. Zero values select defaults.
type LargeBenchConfig struct {
	Path    string        // graph file (binary snapshot or text format); required
	Silos   int           // default 3
	Queries int           // default 10
	Seed    uint64        // default 1
	Level   traffic.Level // default Moderate
}

// LargeReport is the BENCH_large.json document, one per graph.
type LargeReport struct {
	Experiment string `json:"experiment"` // "large"
	Graph      string `json:"graph"`
	Vertices   int    `json:"vertices"`
	Arcs       int    `json:"arcs"`

	// Load path: wall time, resident CSR footprint (adjacency + reverse +
	// weights + coordinates) and the peak live heap while loading. The
	// ratio is the ingestion memory budget the importer promises (~≤2×).
	LoadMs        float64 `json:"load_ms"`
	CSRBytes      int64   `json:"csr_bytes"`
	LoadPeakBytes int64   `json:"load_peak_bytes"`
	LoadPeakRatio float64 `json:"load_peak_ratio"`
	// UnitWeights: the file has no weight section, so every arc weighs 1
	// and every time below is over fabricated weights.
	UnitWeights bool `json:"unit_weights"`

	// Plaintext query throughput on the joint weights of Silos silos.
	Silos         int     `json:"silos"`
	Queries       int     `json:"queries"`
	QueryMeanMs   float64 `json:"query_mean_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

func (c LargeBenchConfig) withDefaults() LargeBenchConfig {
	if c.Silos == 0 {
		c.Silos = 3
	}
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Level.Name == "" {
		c.Level = traffic.Moderate
	}
	return c
}

// RunLargeBench loads the graph at cfg.Path and measures the scale tier.
func RunLargeBench(cfg LargeBenchConfig) (*LargeReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Path == "" {
		return nil, fmt.Errorf("expr: large bench needs a -graph file")
	}
	rep := &LargeReport{
		Experiment: "large",
		Graph:      cfg.Path,
		Silos:      cfg.Silos,
		Queries:    cfg.Queries,
	}

	// Load under a peak-heap sampler. The GC settles the pre-load heap so
	// the peak is attributable to the load itself.
	runtime.GC()
	tracker := peakmem.Start(0)
	start := time.Now()
	g, w, err := graph.LoadFile(cfg.Path)
	if err != nil {
		return nil, err
	}
	rep.LoadMs = float64(time.Since(start).Microseconds()) / 1000
	rep.LoadPeakBytes = int64(tracker.Stop())
	// A weightless snapshot falls back to unit weights after the peak sample:
	// they are not part of the load.
	w, rep.UnitWeights = graph.UnitIfMissing(g, w)
	rep.Vertices, rep.Arcs = g.NumVertices(), g.NumArcs()
	rep.CSRBytes = g.MemoryFootprint() + int64(8*len(w))
	if rep.CSRBytes > 0 {
		rep.LoadPeakRatio = float64(rep.LoadPeakBytes) / float64(rep.CSRBytes)
	}

	// Plaintext point-to-point queries on the joint weights.
	joint := graph.JointWeights(traffic.SiloWeights(w, cfg.Silos, cfg.Level, cfg.Seed))
	rng := rand.New(rand.NewPCG(cfg.Seed*31, cfg.Seed^0xa076_1d64_78bd_642f))
	n := g.NumVertices()
	var total time.Duration
	for q := 0; q < cfg.Queries; q++ {
		s := graph.Vertex(rng.IntN(n))
		t := graph.Vertex(rng.IntN(n))
		start = time.Now()
		graph.DijkstraTo(g, joint, s, t)
		total += time.Since(start)
	}
	if cfg.Queries > 0 {
		rep.QueryMeanMs = float64(total.Microseconds()) / 1000 / float64(cfg.Queries)
		if total > 0 {
			rep.QueriesPerSec = float64(cfg.Queries) / total.Seconds()
		}
	}
	return rep, nil
}

// Print renders the report as the human-readable table.
func (r *LargeReport) Print(out io.Writer) {
	fmt.Fprintf(out, "Large-graph bench — %s\n\n", r.Graph)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "vertices\t%d\n", r.Vertices)
	fmt.Fprintf(tw, "arcs\t%d\n", r.Arcs)
	fmt.Fprintf(tw, "load\t%s\n", fmtDuration(time.Duration(r.LoadMs*float64(time.Millisecond))))
	fmt.Fprintf(tw, "CSR bytes\t%s\n", fmtBytes(r.CSRBytes))
	fmt.Fprintf(tw, "load peak heap\t%s (%.2fx CSR)\n", fmtBytes(r.LoadPeakBytes), r.LoadPeakRatio)
	fmt.Fprintf(tw, "queries (plaintext)\t%d, mean %s, %.2f/s\n", r.Queries,
		fmtDuration(time.Duration(r.QueryMeanMs*float64(time.Millisecond))), r.QueriesPerSec)
	tw.Flush()
}
