package fedroad

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VIII), plus micro-benchmarks of the core primitives. The
// per-figure benchmarks run the same expr harness as cmd/fedbench on
// moderately scaled instances so `go test -bench=.` finishes in minutes;
// `fedbench all` reproduces the full-scale tables (see EXPERIMENTS.md).

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

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

func BenchmarkFig7QueryTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		res, err := h.RunComparative()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig7(res)
	}
}

func BenchmarkFig8Communication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		res, err := h.RunComparative()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig8(res)
	}
}

func BenchmarkFig9SiloScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		res, err := h.RunScalability([]int{2, 4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig9(res)
	}
}

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

func BenchmarkFig10CostCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		comp, err := h.RunComparative()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig10(h.RunFig10(comp))
	}
}

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

func BenchmarkFig12QueueComparisons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		res, err := h.RunFig12()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintFig12(res)
	}
}

func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunAlphaAblation([]int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		h.PrintAlphaAblation(rows)
	}
}

func BenchmarkAblationLandmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunLandmarkAblation(nil)
		if err != nil {
			b.Fatal(err)
		}
		h.PrintLandmarkAblation(rows)
	}
}

func BenchmarkAblationEstimators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunEstimatorAblation()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintEstimatorAblation(rows)
	}
}

func BenchmarkAblationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, err := h.RunBatchingAblation()
		if err != nil {
			b.Fatal(err)
		}
		h.PrintBatchingAblation(rows)
	}
}

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
	f, err := New(g, w0, silos, Config{Seed: 33})
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

func benchSPSP(b *testing.B, opt QueryOptions) {
	f, g := benchFederation(b, 1200)
	if err := f.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	f.PrecomputeLandmarks()
	rng := rand.New(rand.NewPCG(5, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Vertex(rng.IntN(g.NumVertices()))
		t := Vertex(rng.IntN(g.NumVertices()))
		if _, _, err := f.ShortestPath(s, t, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPSPNaiveDijk(b *testing.B) {
	benchSPSP(b, QueryOptions{NoIndex: true, Estimator: NoEstimator, Queue: Heap})
}

func BenchmarkSPSPShortcut(b *testing.B) {
	benchSPSP(b, QueryOptions{Estimator: NoEstimator, Queue: Heap})
}

func BenchmarkSPSPShortcutAMPS(b *testing.B) {
	benchSPSP(b, QueryOptions{Estimator: FedAMPS, Queue: Heap})
}

func BenchmarkSPSPFullStack(b *testing.B) {
	benchSPSP(b, QueryOptions{Estimator: FedAMPS, Queue: TMTree})
}

func BenchmarkSPSPFullStackBatched(b *testing.B) {
	benchSPSP(b, QueryOptions{Estimator: FedAMPS, Queue: TMTree, BatchedMPC: true})
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

// BenchmarkConcurrentQueries measures aggregate SPSP throughput as parallel
// query sessions are added, on CAL-S in full protocol mode with the modeled
// LAN applied as real transport delays. One benchmark iteration answers a
// fixed slate of queries split across W workers (W=1 is the serialized
// baseline), so ns/op is directly comparable across worker counts: the
// speedup comes from sessions overlapping their network waits, plus the
// preprocessing pool keeping dealer work off the critical path.
func BenchmarkConcurrentQueries(b *testing.B) {
	g, w0, _ := graph.GenerateDataset("CAL-S")
	silos := traffic.SiloWeights(w0, 3, traffic.Moderate, 32)
	f, err := New(g, w0, silos, Config{
		Mode: ModeProtocol, Seed: 33,
		PreprocessPool: 8192, PreprocessWorkers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	// Build at full speed, then serve under realistic latency.
	if err := f.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	f.SetRealNetworkDelay(true)

	const slate = 16
	rng := rand.New(rand.NewPCG(7, 7))
	type pair struct{ s, t Vertex }
	pairs := make([]pair, slate)
	for i := range pairs {
		pairs[i] = pair{Vertex(rng.IntN(g.NumVertices())), Vertex(rng.IntN(g.NumVertices()))}
	}
	opt := QueryOptions{Estimator: FedAMPS, Queue: TMTree, BatchedMPC: true}

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						sess := f.Session()
						defer sess.Close()
						for q := w; q < slate; q += workers {
							if _, _, err := sess.ShortestPath(pairs[q].s, pairs[q].t, opt); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
		})
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
		f, err := New(g, w0, silos)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
		_ = lb.FedALT
		f.PrecomputeLandmarks()
	}
}
