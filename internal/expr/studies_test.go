package expr

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/pq"
)

// studyOf runs and prints one study at tinyHarness scale over the first
// dataset.
func studyOf(t *testing.T, mk func(h *Harness, env *Env) (study, error)) (study, []row) {
	t.Helper()
	var out bytes.Buffer
	h := tinyHarness(&out)
	var s study
	rows, err := h.printStudies(h.cfg.Datasets[0], func(env *Env) (study, error) {
		var err error
		s, err = mk(h, env)
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), strings.TrimSpace(s.title)) {
		t.Fatalf("missing %q output", s.title)
	}
	return s, rows
}

func byVariant(rows []row) map[string]row {
	m := map[string]row{}
	for _, r := range rows {
		m[r.name] = r
	}
	return m
}

func TestFig12Shape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	if err := h.Fig12(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 12") || !strings.Contains(out.String(), "#push operations") {
		t.Fatal("missing Fig. 12 output")
	}
	_, rows := studyOf(t, (*Harness).queueStudy)
	if len(rows) != 3 {
		t.Fatalf("got %d queue rows", len(rows))
	}
	m := byVariant(rows)
	tm, heap := m[string(pq.KindTMTree)].queue, m[string(pq.KindHeap)].queue
	// TM-tree's push-side comparisons approach the #push lower bound and
	// stay below the heap's (Fig. 12 headline).
	if tm.Build+tm.Merge >= heap.Build+heap.Merge {
		t.Fatalf("TM-tree push comparisons (%d) should beat heap (%d)",
			tm.Build+tm.Merge, heap.Build+heap.Merge)
	}
	if tm.Total() >= heap.Total() {
		t.Fatalf("TM-tree total (%d) should beat heap total (%d)", tm.Total(), heap.Total())
	}
}

func TestAlphaAblation(t *testing.T) {
	_, rows := studyOf(t, (*Harness).alphaStudy)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.queue.Total() == 0 || r.avg.Compares == 0 {
			t.Fatalf("alpha %s: empty metrics", r.name)
		}
	}
}

func TestLandmarkAblation(t *testing.T) {
	_, rows := studyOf(t, (*Harness).landmarkStudy)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		prev, r := rows[i-1], rows[i]
		if len(r.opt.Landmarks.L) <= len(prev.opt.Landmarks.L) {
			t.Fatal("matrix size should grow with landmark count")
		}
		// More landmarks = tighter bound = no more settled vertices on
		// average.
		if r.avg.Settled > prev.avg.Settled+2 {
			t.Fatalf("more landmarks settled more vertices: %d vs %d", r.avg.Settled, prev.avg.Settled)
		}
	}
}

func TestEstimatorAblation(t *testing.T) {
	_, rows := studyOf(t, (*Harness).estimatorStudy)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	m := byVariant(rows)
	// Fed-ALT spends |L|-1 comparisons per estimation: it must cost more
	// secure comparisons end-to-end than Fed-ALT-Max (the paper's point).
	if alt, altMax := m["fed-alt"].avg.Compares, m["fed-alt-max"].avg.Compares; alt <= altMax {
		t.Fatalf("fed-alt (%d) should cost more comparisons than fed-alt-max (%d)", alt, altMax)
	}
	// Fed-AMPS must beat the no-estimator baseline.
	if amps, none := m["fed-amps"].avg.Compares, m["none"].avg.Compares; amps >= none {
		t.Fatalf("fed-amps (%d) should beat no estimator (%d)", amps, none)
	}
}

func TestBatchingAblation(t *testing.T) {
	_, rows := studyOf(t, (*Harness).batchingStudy)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if seq, bat := rows[0].avg, rows[1].avg; bat.Rounds >= seq.Rounds {
		t.Fatalf("batched rounds %d not below sequential %d", bat.Rounds, seq.Rounds)
	}
}

func TestIndexAblation(t *testing.T) {
	_, rows := studyOf(t, (*Harness).indexStudy)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The tiny witness cap builds cheaper but with more shortcuts than the
	// default edge-difference variant.
	tiny, def := rows[2].env.Index, rows[0].env.Index
	if tiny.NumShortcuts() <= def.NumShortcuts() {
		t.Fatalf("tiny cap should add shortcuts: %d vs %d", tiny.NumShortcuts(), def.NumShortcuts())
	}
	if a, b := tiny.BuildStatistics().SAC.Compares, def.BuildStatistics().SAC.Compares; a >= b {
		t.Fatalf("tiny cap should cut build comparisons: %d vs %d", a, b)
	}
}

// TestStudyCountsPinned pins every count of Fig. 12 and the five ablation
// tables at tinyHarness scale in ideal mode, where they are a function of
// the seed alone. Each line is a variant's name, then its mean Fed-SACs,
// MPC rounds, bytes and settled vertices per query, then its summed queue
// build/merge/pop comparisons and pushes; the landmark lines end in Φ per
// silo, the index lines in witness cap, shortcuts and build Fed-SACs. The
// counts were first recorded by the per-ablation loops this sweep replaced,
// and moved down when a search stopped running comparisons whose bits it
// never reads (a stopped side's pop replay, kNN past its k-th settle). They
// moved again when each side of a route began stepping on its own clock.
func TestStudyCountsPinned(t *testing.T) {
	pins := []struct {
		name  string
		study func(h *Harness, env *Env) (study, error)
		extra []string // heads of the study columns that end each line
		want  []string
	}{
		{"fig12", (*Harness).queueStudy, nil, []string{
			"heap|31|94|1698|5|0|173|81|180",
			"l-heap|29|87|1566|5|116|67|50|180",
			"tm-tree|25|77|1392|5|110|32|61|180",
		}},
		{"alpha", (*Harness).alphaStudy, nil, []string{
			"2|26|80|1452|5|110|41|62|180",
			"4|25|77|1392|5|110|32|61|180",
			"8|25|77|1392|5|110|32|61|180",
			"16|25|77|1392|5|110|32|61|180",
		}},
		{"landmarks", (*Harness).landmarkStudy, []string{"Φ per silo"}, []string{
			"8|44|133|2394|8|134|63|143|229|15KB",
			"16|39|118|2130|7|133|57|112|222|31KB",
			"32|32|97|1746|6|131|43|80|209|62KB",
			"64|25|77|1386|5|110|34|58|181|125KB",
		}},
		{"estimators", (*Harness).estimatorStudy, nil, []string{
			"none|117|353|6366|17|196|146|571|358",
			"fed-alt|191|573|10320|9|142|71|221|245",
			"fed-alt-max|58|174|3138|9|148|73|235|253",
			"fed-amps|25|77|1392|5|110|32|61|180",
		}},
		{"batching", (*Harness).batchingStudy, nil, []string{
			"sequential Fed-SAC|25|77|1392|5|110|32|61|180",
			"batched Fed-SAC|25|29|1283|5|110|32|61|180",
		}},
		{"index", (*Harness).indexStudy, []string{"witness cap", "shortcuts", "build #Fed-SAC"}, []string{
			"edge-diff|21|64|1152|5|93|31|44|162|80|540|87107",
			"degree|25|75|1362|5|125|29|51|188|80|772|118609",
			"edge-diff|25|76|1380|5|113|35|53|184|8|582|10798",
		}},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			s, rows := studyOf(t, p.study)
			var got []string
			for _, r := range rows {
				line := fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%d|%d", r.name, r.avg.Compares, r.avg.Rounds, r.avg.Bytes,
					r.avg.Settled, r.queue.Build, r.queue.Merge, r.queue.Pop, r.queue.Pushes)
				for _, head := range p.extra {
					i := slices.IndexFunc(s.columns, func(c column[row]) bool { return c.head == head })
					line += "|" + s.columns[i].cell(r)
				}
				got = append(got, line)
			}
			if strings.Join(got, "\n") != strings.Join(p.want, "\n") {
				t.Fatalf("counts moved:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(p.want, "\n"))
			}
		})
	}
}
