package expr

import (
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/pq"
)

// QueryMetrics is the cost of one query (or an average over a group).
type QueryMetrics struct {
	// Time is Wall plus the network time Config.Net predicts from Rounds and
	// Bytes: the estimated end-to-end time on the paper's testbed.
	Time     time.Duration
	Wall     time.Duration // local computation measured in-process
	Compares int64         // Fed-SAC invocations
	Bytes    int64         // MPC bytes across all silos
	Rounds   int64         // MPC communication rounds
	Settled  int           // search iterations
	Queue    pq.Counts     // priority-queue comparison breakdown (Fig. 12)
}

func (h *Harness) metricsOf(stats core.QueryStats, parties int) QueryMetrics {
	return QueryMetrics{
		Time:     stats.WallTime + h.cfg.Net.Predict(stats.SAC, parties),
		Wall:     stats.WallTime,
		Compares: stats.SAC.Compares,
		Bytes:    stats.SAC.Bytes,
		Rounds:   stats.SAC.Rounds,
		Settled:  stats.SettledVertices,
		Queue:    stats.Queue,
	}
}

func average(ms []QueryMetrics) QueryMetrics {
	if len(ms) == 0 {
		return QueryMetrics{}
	}
	var out QueryMetrics
	for _, m := range ms {
		out.Time += m.Time
		out.Wall += m.Wall
		out.Compares += m.Compares
		out.Bytes += m.Bytes
		out.Rounds += m.Rounds
		out.Settled += m.Settled
	}
	n := time.Duration(len(ms))
	out.Time /= n
	out.Wall /= n
	out.Compares /= int64(len(ms))
	out.Bytes /= int64(len(ms))
	out.Rounds /= int64(len(ms))
	out.Settled /= len(ms)
	return out
}

// CompRow is one (dataset, method, hop-group) cell of Fig. 7/8.
type CompRow struct {
	Dataset string
	Method  string
	Group   string
	Avg     QueryMetrics
	PerQ    []QueryMetrics // retained for the Fig. 10 correlation analysis
}

// CompResult carries the comparative sweep backing Fig. 7, Fig. 8 and
// Fig. 10.
type CompResult struct {
	Rows []CompRow
}

// runQueries executes a query set under the given engine options.
func (h *Harness) runQueries(env *Env, opt core.Options, qs []Query) ([]QueryMetrics, error) {
	e, err := core.NewEngine(env.Fed, opt)
	if err != nil {
		return nil, err
	}
	out := make([]QueryMetrics, 0, len(qs))
	for _, q := range qs {
		_, stats, err := e.SPSP(q.S, q.T)
		if err != nil {
			return nil, err
		}
		out = append(out, h.metricsOf(stats, env.Fed.P()))
	}
	return out, nil
}

// RunComparative sweeps all datasets × methods × hop groups (the runs behind
// Fig. 7 and Fig. 8).
func (h *Harness) RunComparative() (*CompResult, error) {
	res := &CompResult{}
	for _, ds := range h.cfg.Datasets {
		env, err := h.Env(ds)
		if err != nil {
			return nil, err
		}
		groups := h.QueryGroups(env)
		for _, m := range Methods() {
			for _, grp := range groups {
				ms, err := h.runQueries(env, m.Options(env), grp.Queries)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, CompRow{
					Dataset: ds,
					Method:  m.Name,
					Group:   grp.Label(),
					Avg:     average(ms),
					PerQ:    ms,
				})
			}
		}
	}
	return res, nil
}

// PrintFig7 renders average query times per hop group (paper Fig. 7).
func (h *Harness) PrintFig7(res *CompResult) {
	h.printf("\n== Fig. 7: federated SPSP query time vs query scale (hops) ==\n")
	h.printComp(res, func(m QueryMetrics) string { return fmtDuration(m.Time) })
}

// PrintFig8 renders average communication sizes per hop group (paper
// Fig. 8).
func (h *Harness) PrintFig8(res *CompResult) {
	h.printf("\n== Fig. 8: federated SPSP communication size vs query scale (hops) ==\n")
	h.printComp(res, func(m QueryMetrics) string { return fmtBytes(m.Bytes) })
}

// printComp renders one dataset block per table: methods as rows, hop groups
// as columns.
func (h *Harness) printComp(res *CompResult, cell func(QueryMetrics) string) {
	for _, ds := range h.cfg.Datasets {
		groups := []string{}
		seen := map[string]bool{}
		for _, r := range res.Rows {
			if r.Dataset == ds && !seen[r.Group] {
				seen[r.Group] = true
				groups = append(groups, r.Group)
			}
		}
		if len(groups) == 0 {
			continue
		}
		h.printf("--- %s ---\n", ds)
		w := h.tab()
		w.Write([]byte("method"))
		for _, g := range groups {
			w.Write([]byte("\t" + g))
		}
		w.Write([]byte("\n"))
		for _, m := range Methods() {
			w.Write([]byte(m.Name))
			for _, g := range groups {
				for _, r := range res.Rows {
					if r.Dataset == ds && r.Method == m.Name && r.Group == g {
						w.Write([]byte("\t" + cell(r.Avg)))
					}
				}
			}
			w.Write([]byte("\n"))
		}
		w.Flush()
	}
}

// ScalRow is one (dataset, method, silo-count) cell of Fig. 9.
type ScalRow struct {
	Dataset string
	Method  string
	Silos   int
	Avg     QueryMetrics
}

// ScalResult backs Fig. 9.
type ScalResult struct {
	Rows     []ScalRow
	SiloAxis []int
}

// RunScalability measures query time of the four proposed methods for 2–8
// silos on the first hop group of each dataset (paper Fig. 9).
func (h *Harness) RunScalability(siloCounts []int) (*ScalResult, error) {
	if siloCounts == nil {
		siloCounts = []int{2, 3, 4, 5, 6, 7, 8}
	}
	methods := Methods()
	picked := []Method{methods[0], methods[1], methods[3], methods[4]}
	res := &ScalResult{SiloAxis: siloCounts}
	for _, ds := range h.cfg.Datasets {
		for _, p := range siloCounts {
			env, err := h.envFor(ds, p, "fig9")
			if err != nil {
				return nil, err
			}
			groups := h.QueryGroups(env)
			qs := groups[0].Queries
			for _, m := range picked {
				ms, err := h.runQueries(env, m.Options(env), qs)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, ScalRow{Dataset: ds, Method: m.Name, Silos: p, Avg: average(ms)})
			}
		}
	}
	return res, nil
}

// PrintFig9 renders query time vs silo count.
func (h *Harness) PrintFig9(res *ScalResult) {
	h.printf("\n== Fig. 9: federated SPSP query time vs number of silos ==\n")
	for _, ds := range h.cfg.Datasets {
		h.printf("--- %s (first hop group) ---\n", ds)
		w := h.tab()
		w.Write([]byte("method"))
		for _, p := range res.SiloAxis {
			w.Write([]byte("\t" + strconv.Itoa(p) + " silos"))
		}
		w.Write([]byte("\n"))
		names := []string{}
		seen := map[string]bool{}
		for _, r := range res.Rows {
			if r.Dataset == ds && !seen[r.Method] {
				seen[r.Method] = true
				names = append(names, r.Method)
			}
		}
		for _, name := range names {
			w.Write([]byte(name))
			for _, p := range res.SiloAxis {
				for _, r := range res.Rows {
					if r.Dataset == ds && r.Method == name && r.Silos == p {
						w.Write([]byte("\t" + fmtDuration(r.Avg.Time)))
					}
				}
			}
			w.Write([]byte("\n"))
		}
		w.Flush()
	}
}

// CorrRow is one method's Fig. 10 correlation between Fed-SAC usage and
// query costs.
type CorrRow struct {
	Method       string
	TimeCorr     float64 // Pearson r between #Fed-SAC and query time
	BytesCorr    float64 // Pearson r between #Fed-SAC and bytes
	MeanCompares float64
}

// Fig10Result backs Fig. 10 (query costs ∝ Fed-SAC usage).
type Fig10Result struct {
	Dataset string
	Rows    []CorrRow
}

// RunFig10 correlates per-query Fed-SAC counts with per-query time and
// communication, over all methods and scales on the first dataset (the
// paper uses CAL).
func (h *Harness) RunFig10(comp *CompResult) *Fig10Result {
	ds := h.cfg.Datasets[0]
	res := &Fig10Result{Dataset: ds}
	for _, m := range Methods() {
		var xs, ts, bs []float64
		for _, r := range comp.Rows {
			if r.Dataset != ds || r.Method != m.Name {
				continue
			}
			for _, q := range r.PerQ {
				xs = append(xs, float64(q.Compares))
				ts = append(ts, float64(q.Time))
				bs = append(bs, float64(q.Bytes))
			}
		}
		if len(xs) < 3 {
			continue
		}
		res.Rows = append(res.Rows, CorrRow{
			Method:       m.Name,
			TimeCorr:     pearson(xs, ts),
			BytesCorr:    pearson(xs, bs),
			MeanCompares: mean(xs),
		})
	}
	return res
}

// PrintFig10 renders the correlation table.
func (h *Harness) PrintFig10(res *Fig10Result) {
	h.printf("\n== Fig. 10: query costs are proportional to Fed-SAC usage (%s) ==\n", res.Dataset)
	w := h.tab()
	w.Write([]byte("method\tcorr(#Fed-SAC, time)\tcorr(#Fed-SAC, bytes)\tmean #Fed-SAC\n"))
	for _, r := range res.Rows {
		w.Write([]byte(r.Method + "\t" + fmtF(r.TimeCorr) + "\t" + fmtF(r.BytesCorr) + "\t" + fmtF(r.MeanCompares) + "\n"))
	}
	w.Flush()
}

func fmtF(f float64) string {
	if math.Abs(f) >= 1000 {
		return strconv.Itoa(int(math.Round(f)))
	}
	return strconv.FormatFloat(f, 'f', 3, 64)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pearson(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var num, dx, dy float64
	for i := range xs {
		a, b := xs[i]-mx, ys[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}
