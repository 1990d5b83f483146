package expr

import (
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/pq"
)

// QueryMetrics is the cost of one query (or an average over a query set).
type QueryMetrics struct {
	// Time is Wall plus the network time Config.Net predicts from Rounds and
	// Bytes: the estimated end-to-end time on the paper's testbed.
	Time     time.Duration
	Wall     time.Duration // local computation measured in-process
	Compares int64         // Fed-SAC invocations
	Bytes    int64         // MPC bytes across all silos
	Rounds   int64         // MPC communication rounds
	Settled  int           // search iterations
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

// variant is one named query stack of a sweep: engine options over an
// environment. Variants of one sweep may bring environments of their own (a
// silo count, an index built with other parameters).
type variant struct {
	name string
	env  *Env
	opt  core.Options
}

// row is one variant's cost over one query set.
type row struct {
	variant
	avg   QueryMetrics   // mean per query
	queue pq.Counts      // priority-queue comparisons summed over the set
	perQ  []QueryMetrics // per query, in set order (Fig. 10)
}

// sweep runs every variant over every query set: rows[v][s] is variant v
// over set s. Every experiment that runs federated queries runs them here.
func (h *Harness) sweep(vs []variant, sets ...[]Query) ([][]row, error) {
	rows := make([][]row, len(vs))
	for i, v := range vs {
		e, err := core.NewEngine(v.env.Fed, v.opt)
		if err != nil {
			return nil, err
		}
		for _, qs := range sets {
			r := row{variant: v}
			for _, q := range qs {
				_, st, err := e.SPSP(q.S, q.T)
				if err != nil {
					return nil, err
				}
				r.queue.Add(st.Queue)
				r.perQ = append(r.perQ, QueryMetrics{
					Time:     st.WallTime + h.cfg.Net.Predict(st.SAC, v.env.Fed.P()),
					Wall:     st.WallTime,
					Compares: st.SAC.Compares,
					Bytes:    st.SAC.Bytes,
					Rounds:   st.SAC.Rounds,
					Settled:  st.SettledVertices,
				})
			}
			r.avg = average(r.perQ)
			rows[i] = append(rows[i], r)
		}
	}
	return rows, nil
}

// column is one column of a printed table: its header and its cell on a
// line of type L.
type column[L any] struct {
	head string
	cell func(L) string
}

// table prints title, then the columns' headers and one tab-aligned line per
// element of lines. Every table the harness prints goes through it.
func table[L any](h *Harness, title string, lines []L, cols ...column[L]) {
	h.printf("%s\n", title)
	w := tabwriter.NewWriter(h.cfg.Out, 2, 4, 2, ' ', 0)
	cells := make([]string, len(cols))
	for i, c := range cols {
		cells[i] = c.head
	}
	fmt.Fprintln(w, strings.Join(cells, "\t"))
	for _, l := range lines {
		for i, c := range cols {
			cells[i] = c.cell(l)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
}

// Cells of a row, shared by the tables that print them.
var (
	byName     = func(r row) string { return r.name }
	avgSACs    = func(r row) string { return strconv.FormatInt(r.avg.Compares, 10) }
	avgRounds  = func(r row) string { return strconv.FormatInt(r.avg.Rounds, 10) }
	avgBytes   = func(r row) string { return fmtBytes(r.avg.Bytes) }
	avgSettled = func(r row) string { return strconv.Itoa(r.avg.Settled) }
	avgTime    = func(r row) string { return fmtDuration(r.avg.Time) }
)

// queueColumns are the build/merge/pop breakdown of a row's queue
// comparisons and their total, headed total.
func queueColumns(total string) []column[row] {
	count := func(f func(pq.Counts) int64) func(row) string {
		return func(r row) string { return strconv.FormatInt(f(r.queue), 10) }
	}
	return []column[row]{
		{"build", count(func(c pq.Counts) int64 { return c.Build })},
		{"merge", count(func(c pq.Counts) int64 { return c.Merge })},
		{"pop", count(func(c pq.Counts) int64 { return c.Pop })},
		{total, count(pq.Counts.Total)},
	}
}

func (h *Harness) printf(format string, args ...interface{}) {
	fmt.Fprintf(h.cfg.Out, format, args...)
}

// fmtDuration renders durations compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtBytes renders byte counts compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
