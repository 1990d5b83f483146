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
// never reads (a stopped side's pop replay, kNN past its k-th settle).
func TestStudyCountsPinned(t *testing.T) {
	pins := []struct {
		name  string
		study func(h *Harness, env *Env) (study, error)
		extra []string // heads of the study columns that end each line
		want  []string
	}{
		{"fig12", (*Harness).queueStudy, nil, []string{
			"heap|31|95|1710|6|0|175|89|182",
			"l-heap|29|87|1572|6|117|70|54|182",
			"tm-tree|25|76|1374|6|111|33|64|182",
		}},
		{"alpha", (*Harness).alphaStudy, nil, []string{
			"2|26|79|1434|6|111|42|65|182",
			"4|25|76|1374|6|111|33|64|182",
			"8|25|76|1374|6|111|33|64|182",
			"16|25|76|1374|6|111|33|64|182",
		}},
		{"landmarks", (*Harness).landmarkStudy, []string{"Φ per silo"}, []string{
			"8|43|130|2340|8|135|64|145|231|15KB",
			"16|39|117|2106|8|134|58|114|224|31KB",
			"32|33|99|1794|6|133|45|89|213|62KB",
			"64|28|84|1518|6|118|38|71|193|125KB",
		}},
		{"estimators", (*Harness).estimatorStudy, nil, []string{
			"none|114|343|6186|17|196|147|572|359",
			"fed-alt|193|581|10458|9|145|73|225|250",
			"fed-alt-max|57|171|3078|9|149|74|237|255",
			"fed-amps|25|76|1374|6|111|33|64|182",
		}},
		{"batching", (*Harness).batchingStudy, nil, []string{
			"sequential Fed-SAC|25|76|1374|6|111|33|64|182",
			"batched Fed-SAC|25|29|1263|6|111|33|64|182",
		}},
		{"index", (*Harness).indexStudy, []string{"witness cap", "shortcuts", "build #Fed-SAC"}, []string{
			"edge-diff|24|72|1308|6|101|38|58|177|80|540|87107",
			"degree|28|85|1542|5|137|34|63|204|80|772|118609",
			"edge-diff|26|80|1452|6|119|38|61|193|8|582|10798",
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
