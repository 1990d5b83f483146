package expr

import (
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/lb"
	"repro/internal/pq"
)

// methods returns the paper's six baselines over env in its order (§VIII-B):
// each of the first five adds one layer to the one before, and the last runs
// the TM-tree without the index.
func methods(env *Env) []variant {
	return []variant{
		{"Naive-Dijk", env, core.Options{}},
		{"+Fed-Shortcut", env, core.Options{Index: env.Index}},
		{"+Fed-ALT-Max", env, core.Options{Index: env.Index, Estimator: lb.FedALTMax, Landmarks: env.LM}},
		{"+Fed-AMPS", env, core.Options{Index: env.Index, Estimator: lb.FedAMPS}},
		{"+TM-tree", env, core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: pq.KindTMTree}},
		{"Naive-Dijk+TM-tree", env, core.Options{Queue: pq.KindTMTree}},
	}
}

// fig9Methods are the methods Fig. 9 plots.
var fig9Methods = []string{"Naive-Dijk", "+Fed-Shortcut", "+Fed-AMPS", "+TM-tree"}

// methodColumn names the method of a line holding one method's rows.
var methodColumn = column[[]row]{"method", func(rs []row) string { return rs[0].name }}

// comparison is one dataset's sweep behind Fig. 7, 8 and 10: rows[m][g] is
// the paper's method m over hop group g.
type comparison struct {
	dataset string
	groups  []HopGroup
	rows    [][]row
}

// comparative sweeps every dataset's hop groups with the paper's methods,
// once per harness: Fig. 7, 8 and 10 print the same runs.
func (h *Harness) comparative() ([]comparison, error) {
	if h.comp != nil {
		return h.comp, nil
	}
	var comp []comparison
	for _, ds := range h.cfg.Datasets {
		env, err := h.Env(ds)
		if err != nil {
			return nil, err
		}
		groups := h.QueryGroups(env)
		sets := make([][]Query, len(groups))
		for i, g := range groups {
			sets[i] = g.Queries
		}
		rows, err := h.sweep(methods(env), sets...)
		if err != nil {
			return nil, err
		}
		comp = append(comp, comparison{ds, groups, rows})
	}
	h.comp = comp
	return comp, nil
}

// Fig7 prints average query time per hop group (paper Fig. 7).
func (h *Harness) Fig7() error {
	return h.printComparison("\n== Fig. 7: federated SPSP query time vs query scale (hops) ==",
		func(m QueryMetrics) string { return fmtDuration(m.Time) })
}

// Fig8 prints average communication per hop group (paper Fig. 8).
func (h *Harness) Fig8() error {
	return h.printComparison("\n== Fig. 8: federated SPSP communication size vs query scale (hops) ==",
		func(m QueryMetrics) string { return fmtBytes(m.Bytes) })
}

// printComparison prints one table per dataset: methods as lines, hop groups
// as columns.
func (h *Harness) printComparison(title string, cell func(QueryMetrics) string) error {
	comp, err := h.comparative()
	if err != nil {
		return err
	}
	h.printf("%s\n", title)
	for _, c := range comp {
		cols := []column[[]row]{methodColumn}
		for g, grp := range c.groups {
			cols = append(cols, column[[]row]{grp.Label(), func(rs []row) string { return cell(rs[g].avg) }})
		}
		table(h, "--- "+c.dataset+" ---", c.rows, cols...)
	}
	return nil
}

// Fig9 prints query time against silo count, 2 to 8, on each dataset's
// first hop group (paper Fig. 9). A dataset's federations are dropped once
// its table is printed.
func (h *Harness) Fig9() error {
	silos := []int{2, 3, 4, 5, 6, 7, 8}
	h.printf("\n== Fig. 9: federated SPSP query time vs number of silos ==\n")
	for _, ds := range h.cfg.Datasets {
		byMethod, err := h.scalability(ds, silos)
		if err != nil {
			return err
		}
		h.printFig9(ds, silos, byMethod)
	}
	return nil
}

// scalability runs Fig. 9's methods at every silo count on a dataset's first
// hop group. byMethod[m][p] is method m at silos[p]; each silo count is a
// federation of its own.
func (h *Harness) scalability(ds string, silos []int) ([][]row, error) {
	var vs []variant
	for _, p := range silos {
		env, err := h.buildEnv(ds, p)
		if err != nil {
			return nil, err
		}
		for _, v := range methods(env) {
			if slices.Contains(fig9Methods, v.name) {
				vs = append(vs, v)
			}
		}
	}
	// Every silo count draws the same queries: they depend on the topology
	// alone.
	rows, err := h.sweep(vs, h.QueryGroups(vs[0].env)[0].Queries)
	if err != nil {
		return nil, err
	}
	byMethod := make([][]row, len(fig9Methods))
	for i, rs := range rows {
		byMethod[i%len(byMethod)] = append(byMethod[i%len(byMethod)], rs[0])
	}
	return byMethod, nil
}

// printFig9 prints one dataset's Fig. 9 table.
func (h *Harness) printFig9(ds string, silos []int, byMethod [][]row) {
	cols := []column[[]row]{methodColumn}
	for p, n := range silos {
		cols = append(cols, column[[]row]{strconv.Itoa(n) + " silos", func(rs []row) string { return fmtDuration(rs[p].avg.Time) }})
	}
	table(h, "--- "+ds+" (first hop group) ---", byMethod, cols...)
}

// Fig10 prints, per method, the correlation of per-query Fed-SAC counts with
// per-query time and communication over every hop group of the first
// dataset (paper Fig. 10; the paper uses CAL).
func (h *Harness) Fig10() error {
	comp, err := h.comparative()
	if err != nil {
		return err
	}
	var lines [][]row
	for _, rs := range comp[0].rows {
		if sacs, _, _ := perQuery(rs); len(sacs) >= 3 {
			lines = append(lines, rs)
		}
	}
	corr := func(head string, of func(sacs, time, bytes []float64) float64) column[[]row] {
		return column[[]row]{head, func(rs []row) string { return fmtF(of(perQuery(rs))) }}
	}
	table(h, "\n== Fig. 10: query costs are proportional to Fed-SAC usage ("+comp[0].dataset+") ==", lines,
		methodColumn,
		corr("corr(#Fed-SAC, time)", func(s, t, _ []float64) float64 { return pearson(s, t) }),
		corr("corr(#Fed-SAC, bytes)", func(s, _, b []float64) float64 { return pearson(s, b) }),
		corr("mean #Fed-SAC", func(s, _, _ []float64) float64 { return mean(s) }))
	return nil
}

// perQuery returns one method's per-query Fed-SAC counts, times and bytes
// over all its hop groups.
func perQuery(rs []row) (sacs, times, bytes []float64) {
	for _, r := range rs {
		for _, q := range r.perQ {
			sacs = append(sacs, float64(q.Compares))
			times = append(times, float64(q.Time))
			bytes = append(bytes, float64(q.Bytes))
		}
	}
	return sacs, times, bytes
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
