package expr

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"time"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// Tab1Row describes one dataset (paper Table I, extended with this repo's
// scaled stand-in sizes).
type Tab1Row struct {
	Name      string
	Region    string
	PaperV    int
	PaperE    int
	Vertices  int
	Arcs      int
	Shortcuts int
}

// RunTab1 materializes the configured datasets and reports their sizes.
func (h *Harness) RunTab1() ([]Tab1Row, error) {
	var rows []Tab1Row
	for _, ds := range h.cfg.Datasets {
		env, err := h.Env(ds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Tab1Row{
			Name:      env.Spec.Name,
			Region:    env.Spec.Region,
			PaperV:    env.Spec.PaperV,
			PaperE:    env.Spec.PaperE,
			Vertices:  env.G.NumVertices(),
			Arcs:      env.G.NumArcs(),
			Shortcuts: env.Index.NumShortcuts(),
		})
	}
	return rows, nil
}

// PrintTab1 renders the dataset table.
func (h *Harness) PrintTab1(rows []Tab1Row) {
	cell := func(f func(Tab1Row) int) func(Tab1Row) string {
		return func(r Tab1Row) string { return strconv.Itoa(f(r)) }
	}
	table(h, "\n== Table I: datasets (scaled stand-ins for the paper's networks) ==", rows,
		column[Tab1Row]{"dataset", func(r Tab1Row) string { return r.Name }},
		column[Tab1Row]{"region", func(r Tab1Row) string { return r.Region }},
		column[Tab1Row]{"paper #V", cell(func(r Tab1Row) int { return r.PaperV })},
		column[Tab1Row]{"paper #E", cell(func(r Tab1Row) int { return r.PaperE })},
		column[Tab1Row]{"ours #V", cell(func(r Tab1Row) int { return r.Vertices })},
		column[Tab1Row]{"ours #arcs", cell(func(r Tab1Row) int { return r.Arcs })},
		column[Tab1Row]{"shortcuts", cell(func(r Tab1Row) int { return r.Shortcuts })})
}

// Tab2Row is one row of Table II: one index kind's construction time plus
// update times for several changed-edge percentages on a dataset. Times add
// the network time Config.Net predicts for the secure comparisons consumed
// to the measured local computation.
type Tab2Row struct {
	Dataset      string
	Index        string // "witness" or "customized"
	Construction time.Duration
	Updates      map[float64]time.Duration // percentage -> time
	UpdateSAC    map[float64]int64         // percentage -> Fed-SAC count
}

// Tab2Percentages are the paper's changed-edge percentages.
var Tab2Percentages = []float64{0.1, 1, 10}

// RunTab2 measures federated index construction and dynamic partial update
// times (paper Table II) of the environment's witness index and of the
// customized index production derives, skeleton included, over the same
// changes. Index.Update leaves the index it starts from as it was, so the
// update costs are independent.
func (h *Harness) RunTab2() ([]Tab2Row, error) {
	var rows []Tab2Row
	for _, ds := range h.cfg.Datasets {
		env, err := h.Env(ds)
		if err != nil {
			return nil, err
		}
		sk, err := ch.BuildSkeleton(env.G)
		var custom *ch.Index
		if err == nil {
			custom, err = ch.Customize(env.Fed, sk)
		}
		if err != nil {
			return nil, err
		}
		indexes := []*ch.Index{env.Index, custom}
		pair := []Tab2Row{{Dataset: ds, Index: "witness"}, {Dataset: ds, Index: "customized", Construction: sk.Stats().WallTime}}
		for k, x := range indexes {
			st := x.BuildStatistics()
			pair[k].Construction += st.WallTime + h.cfg.Net.Predict(st.SAC, env.Fed.P())
			pair[k].Updates, pair[k].UpdateSAC = make(map[float64]time.Duration), make(map[float64]int64)
		}
		for i, pct := range Tab2Percentages {
			rng := rand.New(rand.NewPCG(h.cfg.Seed*999, uint64(i)))
			num := max(int(pct/100*float64(env.G.NumArcs())), 1)
			// The next traffic version re-samples the congestion of these
			// arcs at every silo.
			sets := make([]graph.Weights, env.Fed.P())
			for p := range sets {
				sets[p] = slices.Clone(env.Fed.Silo(p).Weights())
			}
			changed := make([]graph.Arc, 0, num)
			for _, ai := range rng.Perm(env.G.NumArcs())[:num] {
				a := graph.Arc(ai)
				changed = append(changed, a)
				for p := range sets {
					theta := rng.Float64() * h.cfg.Level.ThetaMax
					sets[p][a] = max(int64(float64(env.W0[a])*(1+theta)), 1)
				}
			}
			next := env.Fed.WithWeights(sets)
			for k, x := range indexes {
				_, stats, err := x.Update(next, changed)
				if err != nil {
					return nil, err
				}
				pair[k].Updates[pct] = stats.WallTime + h.cfg.Net.Predict(stats.SAC, env.Fed.P())
				pair[k].UpdateSAC[pct] = stats.SAC.Compares
			}
		}
		rows = append(rows, pair...)
	}
	return rows, nil
}

// PrintTab2 renders the construction/update table: each update's time, then
// its Fed-SAC count in parentheses.
func (h *Harness) PrintTab2(rows []Tab2Row) {
	cols := []column[Tab2Row]{
		{"dataset", func(r Tab2Row) string { return r.Dataset }},
		{"index", func(r Tab2Row) string { return r.Index }},
	}
	for _, pct := range Tab2Percentages {
		cols = append(cols, column[Tab2Row]{"upd " + strconv.FormatFloat(pct, 'g', -1, 64) + "%",
			func(r Tab2Row) string {
				return fmtDuration(r.Updates[pct]) + " (" + strconv.FormatInt(r.UpdateSAC[pct], 10) + ")"
			}})
	}
	cols = append(cols, column[Tab2Row]{"construction", func(r Tab2Row) string { return fmtDuration(r.Construction) }})
	table(h, "\n== Table II: federated shortcut index construction & update time (update Fed-SACs) ==", rows, cols...)
}

// Fig1Row is one traffic-data setting of Fig. 1: the share of queries whose
// route, computed on that setting's estimated weights, is delayed beyond
// each threshold relative to the true optimum.
type Fig1Row struct {
	Setting   string
	DelayedGT map[int]float64 // minutes threshold -> fraction of queries
	MeanDelay time.Duration
}

// Fig1Thresholds are the delay thresholds (minutes) reported.
var Fig1Thresholds = []int{1, 3, 5}

// RunFig1 reproduces the motivating experiment: platforms holding 0.25×,
// 0.5× and 1× of the trajectory pool route on their own weight estimates;
// the "Aggregated" setting averages the estimates of disjoint platform
// shares (the federation's joint view). Delays are measured against the
// ground-truth optimum.
func (h *Harness) RunFig1(numTrajectories, numQueries int) ([]Fig1Row, error) {
	if numTrajectories == 0 {
		numTrajectories = 3000
	}
	if numQueries == 0 {
		numQueries = 200
	}
	g, w0, _ := h.generate(h.beijing())
	wTrue := traffic.GroundTruth(w0, traffic.Heavy, h.cfg.Seed+11)
	obs := traffic.Simulate(g, wTrue, w0, numTrajectories, 0.25, h.cfg.Seed+12)

	type setting struct {
		name string
		w    graph.Weights
	}
	shares := obs.Split(2)
	est0 := obs.Estimate(shares[0])
	est1 := obs.Estimate(shares[1])
	agg := make(graph.Weights, len(est0))
	for a := range agg {
		agg[a] = (est0[a] + est1[a]) / 2
	}
	settings := []setting{
		{"0.25x traffic", obs.Estimate(obs.Fraction(0.25))},
		{"0.5x traffic", obs.Estimate(obs.Fraction(0.5))},
		{"1x traffic", obs.Estimate(obs.Fraction(1.0))},
		{"Aggregated (2x0.5)", agg},
	}

	rng := rand.New(rand.NewPCG(h.cfg.Seed+13, 13))
	type qp struct{ s, t graph.Vertex }
	var queries []qp
	for len(queries) < numQueries {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		t := graph.Vertex(rng.IntN(g.NumVertices()))
		if s != t {
			queries = append(queries, qp{s, t})
		}
	}

	var rows []Fig1Row
	for _, st := range settings {
		row := Fig1Row{Setting: st.name, DelayedGT: make(map[int]float64)}
		delayed := make(map[int]int)
		var total time.Duration
		for _, q := range queries {
			optimal, _ := graph.DijkstraTo(g, wTrue, q.s, q.t)
			_, route := graph.DijkstraTo(g, st.w, q.s, q.t)
			actual, err := graph.PathCost(g, wTrue, route)
			if err != nil {
				return nil, err
			}
			delayMs := actual - optimal
			total += time.Duration(delayMs) * time.Millisecond
			for _, th := range Fig1Thresholds {
				if delayMs > int64(th)*60_000 {
					delayed[th]++
				}
			}
		}
		for _, th := range Fig1Thresholds {
			row.DelayedGT[th] = float64(delayed[th]) / float64(len(queries))
		}
		row.MeanDelay = total / time.Duration(len(queries))
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig1 renders the delay table.
func (h *Harness) PrintFig1(rows []Fig1Row) {
	cols := []column[Fig1Row]{{"traffic data", func(r Fig1Row) string { return r.Setting }}}
	for _, th := range Fig1Thresholds {
		cols = append(cols, column[Fig1Row]{">" + strconv.Itoa(th) + "min",
			func(r Fig1Row) string { return strconv.FormatFloat(r.DelayedGT[th]*100, 'f', 1, 64) + "%" }})
	}
	cols = append(cols, column[Fig1Row]{"mean delay", func(r Fig1Row) string { return fmtDuration(r.MeanDelay) }})
	table(h, "\n== Fig. 1: routing delay vs volume of traffic data ==", rows, cols...)
}
