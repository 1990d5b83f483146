package fedroad

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VIII), plus micro-benchmarks of the core primitives. The
// per-figure benchmarks run the same expr harness as cmd/fedbench on
// moderately scaled instances so `go test -bench=.` finishes in minutes;
// `fedbench all` reproduces the full-scale tables (see EXPERIMENTS.md).

import (
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// benchHarness builds a harness on bench-scale instances (quiet output).
func benchHarness() *expr.Harness {
	return expr.New(expr.Config{
		Datasets:        []string{"CAL-S"},
		QueriesPerGroup: 5,
		NumGroups:       4,
		Landmarks:       16,
		MaxVertices:     800,
		Out:             io.Discard,
	})
}

func BenchmarkFig1TrafficVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunFig1(1000, 100)
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig1(rows)
	}
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunTab1()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintTab1(rows)
	}
}

// benchExperiment runs one of the harness's run-and-print experiments per
// iteration on a fresh bench-scale harness.
func benchExperiment(b *testing.B, run func(*expr.Harness) error) {
	for i := 0; i < b.N; i++ {
		if err := run(benchHarness()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7QueryTime(b *testing.B) { benchExperiment(b, (*expr.Harness).Fig7) }

func BenchmarkFig8Communication(b *testing.B) { benchExperiment(b, (*expr.Harness).Fig8) }

func BenchmarkFig9SiloScalability(b *testing.B) { benchExperiment(b, (*expr.Harness).Fig9) }

func BenchmarkTable2IndexUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunTab2()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintTab2(rows)
	}
}

func BenchmarkFig10CostCorrelation(b *testing.B) { benchExperiment(b, (*expr.Harness).Fig10) }

func BenchmarkFig11LowerBoundAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		res, err := h.RunFig11(50)
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig11(res)
	}
}

func BenchmarkFig12QueueComparisons(b *testing.B) { benchExperiment(b, (*expr.Harness).Fig12) }

// BenchmarkAblations runs the five ablation tables of `fedbench ablate`.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, (*expr.Harness).Ablate) }

// --- micro-benchmarks of the primitives ---

func benchEngine(b *testing.B, mode mpc.Mode, parties int) *mpc.Engine {
	b.Helper()
	e, err := mpc.NewEngine(mpc.Params{Parties: parties, Mode: mode, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkFedSACIdeal(b *testing.B) {
	e := benchEngine(b, mpc.ModeIdeal, 3)
	diffs := []int64{100, -350, 249}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Compare(diffs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedSACProtocol3Parties(b *testing.B) {
	e := benchEngine(b, mpc.ModeProtocol, 3)
	diffs := []int64{100, -350, 249}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Compare(diffs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedSACProtocol8Parties(b *testing.B) {
	e := benchEngine(b, mpc.ModeProtocol, 8)
	diffs := []int64{100, -350, 249, 1, -2, 3, -4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Compare(diffs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFederation(b *testing.B, n int) (*Federation, *graph.Graph) {
	b.Helper()
	g, w0 := graph.GenerateRoadLike(n, 31)
	silos := traffic.SiloWeights(w0, 3, traffic.Moderate, 32)
	f, err := New(g, w0, silos, Config{Mode: ModeIdeal, Seed: 33})
	if err != nil {
		b.Fatal(err)
	}
	return f, g
}

// BenchmarkIndexDerivation times both index derivations — the witness build
// and the customization sweep (skeleton contracted once, outside the timer).
// The reported mpc-rounds and rounds-saved metrics hold on any host.
func BenchmarkIndexDerivation(b *testing.B) {
	for _, mode := range []string{"build", "customize"} {
		b.Run(mode, func(b *testing.B) {
			f, _ := benchFederation(b, 1000)
			derive := f.BuildIndex
			if mode == "customize" {
				if err := f.BuildSkeleton(); err != nil {
					b.Fatal(err)
				}
				derive = f.CustomizeIndex
			}
			var rounds, saved int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := derive(); err != nil {
					b.Fatal(err)
				}
				st := f.IndexStats()
				rounds += st.SAC.Rounds
				saved += st.RoundsSaved
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "mpc-rounds/op")
			b.ReportMetric(float64(saved)/float64(b.N), "rounds-saved/op")
		})
	}
}

// benchSPSP times one point of the paper's stack, a core engine over a fork
// of the federation; indexed selects its shortcut index.
func benchSPSP(b *testing.B, opt core.Options, indexed bool) {
	f, g := benchFederation(b, 1200)
	if indexed {
		if err := f.BuildIndex(); err != nil {
			b.Fatal(err)
		}
		opt.Index = f.cur.Load().index
	}
	fork := f.cur.Load().fed.Fork()
	defer fork.Engine().Close()
	e, err := core.NewEngine(fork, opt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Vertex(rng.IntN(g.NumVertices()))
		t := Vertex(rng.IntN(g.NumVertices()))
		if _, _, err := e.SPSP(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPSPNaiveDijk(b *testing.B) {
	benchSPSP(b, core.Options{Queue: pq.KindHeap}, false)
}

func BenchmarkSPSPShortcut(b *testing.B) {
	benchSPSP(b, core.Options{Queue: pq.KindHeap}, true)
}

func BenchmarkSPSPShortcutAMPS(b *testing.B) {
	benchSPSP(b, core.Options{Estimator: lb.FedAMPS, Queue: pq.KindHeap}, true)
}

func BenchmarkSPSPFullStack(b *testing.B) {
	benchSPSP(b, core.Options{Estimator: lb.FedAMPS, Queue: pq.KindTMTree}, true)
}

func BenchmarkSPSPFullStackBatched(b *testing.B) {
	benchSPSP(b, core.Options{Estimator: lb.FedAMPS, Queue: pq.KindTMTree, BatchedMPC: true}, true)
}

func BenchmarkSSSPkNN(b *testing.B) {
	f, g := benchFederation(b, 1200)
	rng := rand.New(rand.NewPCG(6, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Vertex(rng.IntN(g.NumVertices()))
		if _, _, err := f.NearestNeighbors(s, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQueue(b *testing.B, kind pq.Kind) {
	rng := rand.New(rand.NewPCG(9, 9))
	batches := make([][]int, 512)
	for i := range batches {
		batch := make([]int, 4+rng.IntN(8))
		for j := range batch {
			batch[j] = rng.IntN(1 << 20)
		}
		batches[i] = batch
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pq.New[int](kind, func(a, c int) bool { return a < c }, 4)
		for _, batch := range batches {
			q.PushBatch(batch)
			q.Pop()
		}
	}
}

func BenchmarkQueueHeap(b *testing.B)    { benchQueue(b, pq.KindHeap) }
func BenchmarkQueueLeftist(b *testing.B) { benchQueue(b, pq.KindLeftist) }
func BenchmarkQueueTMTree(b *testing.B)  { benchQueue(b, pq.KindTMTree) }

func BenchmarkLandmarkPrecompute(b *testing.B) {
	g, w0 := graph.GenerateRoadLike(800, 41)
	silos := traffic.SiloWeights(w0, 3, traffic.Moderate, 42)
	for i := 0; i < b.N; i++ {
		lb.Precompute(g, w0, silos, lb.SelectLandmarks(g, w0, 32, 0), 0)
	}
}
