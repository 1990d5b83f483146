package expr

import (
	"strconv"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// BatchRow compares the sequential and batched execution of one method.
type BatchRow struct {
	Mode string
	Avg  QueryMetrics
}

// RunBatchingAblation measures the effect of batched Fed-SAC on the full
// stack (extension beyond the paper: the TM-tree's tournament-build
// comparisons are independent per level, so they can share one protocol
// instance's communication rounds — on latency-bound networks this is a
// direct query-time win).
func (h *Harness) RunBatchingAblation() ([]BatchRow, error) {
	env, err := h.Env(h.cfg.Datasets[0])
	if err != nil {
		return nil, err
	}
	groups := h.QueryGroups(env)
	var rows []BatchRow
	for _, batched := range []bool{false, true} {
		opt := core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: pq.KindTMTree, BatchedMPC: batched}
		var all []QueryMetrics
		for _, grp := range groups {
			ms, err := h.runQueries(env, opt, grp.Queries)
			if err != nil {
				return nil, err
			}
			all = append(all, ms...)
		}
		name := "sequential Fed-SAC"
		if batched {
			name = "batched Fed-SAC"
		}
		rows = append(rows, BatchRow{Mode: name, Avg: average(all)})
	}
	return rows, nil
}

// PrintBatchingAblation renders the batching comparison.
func (h *Harness) PrintBatchingAblation(rows []BatchRow) {
	h.printf("\n== Extension: batched Fed-SAC for TM-tree tournament builds ==\n")
	w := h.tab()
	w.Write([]byte("execution\tavg #Fed-SAC\tavg MPC rounds\tavg bytes\tavg query time\n"))
	for _, r := range rows {
		w.Write([]byte(r.Mode + "\t" +
			strconv.FormatInt(r.Avg.Compares, 10) + "\t" +
			strconv.FormatInt(r.Avg.Rounds, 10) + "\t" +
			fmtBytes(r.Avg.Bytes) + "\t" +
			fmtDuration(r.Avg.Time) + "\n"))
	}
	w.Flush()
}

// IndexRow compares index-construction strategies (the §IV framework knobs).
type IndexRow struct {
	Ordering   string
	WitnessCap int
	Shortcuts  int
	BuildSACs  int64
	BuildTime  string
	QueryAvg   QueryMetrics
}

// RunIndexAblation builds the federated shortcut index under different
// framework parameters — ordering heuristic and witness-search cap — and
// measures index size, construction cost and resulting query cost.
func (h *Harness) RunIndexAblation() ([]IndexRow, error) {
	ds := h.cfg.Datasets[0]
	g, w0, _ := h.generate(ds)
	variants := []ch.Params{
		{Ordering: ch.OrderEdgeDiff},
		{Ordering: ch.OrderDegree},
		{Ordering: ch.OrderEdgeDiff, WitnessCap: 8},
	}
	var rows []IndexRow
	for _, prm := range variants {
		sets := traffic.SiloWeights(w0, h.cfg.Silos, h.cfg.Level, h.cfg.Seed+5)
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: h.cfg.Mode, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := ch.BuildWith(f, prm)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)
		env := &Env{Spec: specFor(ds), G: g, W0: w0, Fed: f, Joint: f.JointWeights(), Index: idx}
		groups := h.QueryGroups(env)
		opt := core.Options{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree}
		var all []QueryMetrics
		for _, grp := range groups {
			ms, err := h.runQueries(env, opt, grp.Queries)
			if err != nil {
				return nil, err
			}
			all = append(all, ms...)
		}
		cap := prm.WitnessCap
		if cap == 0 {
			cap = ch.DefaultWitnessCap
		}
		rows = append(rows, IndexRow{
			Ordering:   string(prm.Ordering),
			WitnessCap: cap,
			Shortcuts:  idx.NumShortcuts(),
			BuildSACs:  idx.BuildStatistics().SAC.Compares,
			BuildTime:  fmtDuration(buildTime + h.cfg.Net.Predict(idx.BuildStatistics().SAC, f.P())),
			QueryAvg:   average(all),
		})
	}
	return rows, nil
}

// PrintIndexAblation renders the construction-strategy comparison.
func (h *Harness) PrintIndexAblation(rows []IndexRow) {
	h.printf("\n== Ablation: federated shortcut index construction strategies ==\n")
	w := h.tab()
	w.Write([]byte("ordering\twitness cap\tshortcuts\tbuild #Fed-SAC\tbuild time\tavg query #Fed-SAC\tavg query time\n"))
	for _, r := range rows {
		w.Write([]byte(r.Ordering + "\t" +
			strconv.Itoa(r.WitnessCap) + "\t" +
			strconv.Itoa(r.Shortcuts) + "\t" +
			strconv.FormatInt(r.BuildSACs, 10) + "\t" +
			r.BuildTime + "\t" +
			strconv.FormatInt(r.QueryAvg.Compares, 10) + "\t" +
			fmtDuration(r.QueryAvg.Time) + "\n"))
	}
	w.Flush()
}
