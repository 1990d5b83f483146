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
// moved again when each side of a route began stepping on its own clock,
// and again when a side no longer waited for the other's fold of its
// previous step (a side that runs ahead may settle more or fewer vertices).
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
			"tm-tree|25|77|1386|5|110|32|60|180",
		}},
		{"alpha", (*Harness).alphaStudy, nil, []string{
			"2|26|80|1446|5|110|40|62|180",
			"4|25|77|1386|5|110|32|60|180",
			"8|25|77|1386|5|110|32|60|180",
			"16|25|77|1386|5|110|32|60|180",
		}},
		{"landmarks", (*Harness).landmarkStudy, []string{"Φ per silo"}, []string{
			"8|44|134|2424|8|135|64|144|231|15KB",
			"16|40|120|2160|8|134|58|113|224|31KB",
			"32|32|96|1740|6|131|43|79|209|62KB",
			"64|25|76|1380|5|110|34|57|181|125KB",
		}},
		{"estimators", (*Harness).estimatorStudy, nil, []string{
			"none|117|352|6342|17|194|144|565|355",
			"fed-alt|198|595|10716|9|148|74|225|254",
			"fed-alt-max|58|176|3168|9|149|74|236|255",
			"fed-amps|25|77|1386|5|110|32|60|180",
		}},
		{"batching", (*Harness).batchingStudy, nil, []string{
			"sequential Fed-SAC|25|77|1386|5|110|32|60|180",
			"batched Fed-SAC|25|28|1275|5|110|32|60|180",
		}},
		{"index", (*Harness).indexStudy, []string{"witness cap", "shortcuts", "build #Fed-SAC"}, []string{
			"edge-diff|21|64|1152|5|93|31|44|162|80|540|87107",
			"degree|25|76|1374|5|125|30|52|189|80|772|118609",
			"edge-diff|26|78|1410|6|113|37|55|185|8|582|10798",
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
