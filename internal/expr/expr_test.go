package expr

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pq"
)

// tinyHarness runs every experiment on drastically scaled-down instances so
// the full harness code path is exercised in unit tests.
func tinyHarness(out *bytes.Buffer) *Harness {
	return New(Config{
		Datasets:        []string{"CAL-S"},
		QueriesPerGroup: 3,
		NumGroups:       3,
		Landmarks:       6,
		MaxVertices:     250,
		Out:             out,
	})
}

func TestConfigDefaults(t *testing.T) {
	h := New(Config{})
	cfg := h.Config()
	if len(cfg.Datasets) != 3 || cfg.Silos != 3 || cfg.QueriesPerGroup != 20 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Level.Name != "Moderate" || cfg.Landmarks != 32 || cfg.NumGroups != 5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestEnvCaching(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	e1, err := h.Env("CAL-S")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.Env("CAL-S")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("env not cached")
	}
	if e1.G.NumVertices() > 250 {
		t.Fatalf("MaxVertices cap ignored: %d", e1.G.NumVertices())
	}
	if e1.Index == nil || e1.LM == nil || len(e1.Joint) != e1.G.NumArcs() {
		t.Fatal("env incomplete")
	}
}

func TestQueryGroups(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	env, err := h.Env("CAL-S")
	if err != nil {
		t.Fatal(err)
	}
	groups := h.QueryGroups(env)
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	for gi, g := range groups {
		if len(g.Queries) == 0 {
			t.Fatalf("group %d (%s) empty", gi, g.Label())
		}
		for _, q := range g.Queries {
			if q.Hops < g.Lo || q.Hops >= g.Hi {
				t.Fatalf("group %s holds query with %d hops", g.Label(), q.Hops)
			}
			if q.S == q.T {
				t.Fatal("degenerate query")
			}
		}
	}
	// Deterministic across calls.
	again := h.QueryGroups(env)
	for gi := range groups {
		if len(again[gi].Queries) != len(groups[gi].Queries) {
			t.Fatal("query groups not deterministic")
		}
		for qi := range groups[gi].Queries {
			if again[gi].Queries[qi] != groups[gi].Queries[qi] {
				t.Fatal("query groups not deterministic")
			}
		}
	}
}

func TestComparativeShape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	comp, err := h.RunComparative()
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Rows) != len(Methods())*3 {
		t.Fatalf("got %d rows", len(comp.Rows))
	}
	// The Fig. 7 headline: the full stack beats Naive-Dijk on comparisons in
	// the longest-query group.
	longest := comp.Rows[0].Group
	for _, r := range comp.Rows {
		if r.Group > longest {
			longest = r.Group
		}
	}
	var naive, full int64
	for _, r := range comp.Rows {
		if r.Group != longest {
			continue
		}
		switch r.Method {
		case "Naive-Dijk":
			naive = r.Avg.Compares
		case "+TM-tree":
			full = r.Avg.Compares
		}
	}
	if naive == 0 || full == 0 {
		t.Fatal("missing method rows")
	}
	if full >= naive {
		t.Fatalf("full stack (%d comparisons) should beat Naive-Dijk (%d)", full, naive)
	}
	h.PrintFig7(comp)
	h.PrintFig8(comp)
	s := out.String()
	if !strings.Contains(s, "Fig. 7") || !strings.Contains(s, "Naive-Dijk") {
		t.Fatalf("output missing expected content:\n%s", s)
	}
}

func TestScalabilityShape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	res, err := h.RunScalability([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4*2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// More silos means more bytes per comparison, hence more modelled time.
	for _, m := range []string{"Naive-Dijk", "+TM-tree"} {
		var b2, b4 int64
		for _, r := range res.Rows {
			if r.Method == m && r.Silos == 2 {
				b2 = r.Avg.Bytes
			}
			if r.Method == m && r.Silos == 4 {
				b4 = r.Avg.Bytes
			}
		}
		if b4 <= b2 {
			t.Fatalf("%s: bytes did not grow with silos (%d vs %d)", m, b2, b4)
		}
	}
	h.PrintFig9(res)
	if !strings.Contains(out.String(), "Fig. 9") {
		t.Fatal("missing Fig. 9 output")
	}
}

func TestTab1AndTab2(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	t1, err := h.RunTab1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 1 || t1[0].Name != "CAL-S" || t1[0].Shortcuts == 0 {
		t.Fatalf("tab1 rows: %+v", t1)
	}
	t2, err := h.RunTab2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 1 {
		t.Fatalf("tab2 rows: %d", len(t2))
	}
	r := t2[0]
	if r.Construction <= 0 {
		t.Fatal("no construction time")
	}
	for _, pct := range Tab2Percentages {
		if _, ok := r.Updates[pct]; !ok {
			t.Fatalf("missing update time for %v%%", pct)
		}
	}
	// Update at 0.1% must be cheaper than construction in comparisons.
	if r.UpdateSAC[0.1] >= r.UpdateSAC[10] {
		t.Fatalf("update comparisons should grow with change size: %v", r.UpdateSAC)
	}
	h.PrintTab1(t1)
	h.PrintTab2(t2)
	if !strings.Contains(out.String(), "Table II") {
		t.Fatal("missing Table II output")
	}
}

func TestFig1Shape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	rows, err := h.RunFig1(500, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d settings", len(rows))
	}
	// More traffic data means smaller mean delay: 0.25x worst, 1x better.
	if rows[0].MeanDelay < rows[2].MeanDelay {
		t.Fatalf("1x data (%v) should beat 0.25x (%v)", rows[2].MeanDelay, rows[0].MeanDelay)
	}
	h.PrintFig1(rows)
	if !strings.Contains(out.String(), "Fig. 1") {
		t.Fatal("missing Fig. 1 output")
	}
}

func TestFig10Correlation(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	comp, err := h.RunComparative()
	if err != nil {
		t.Fatal(err)
	}
	res := h.RunFig10(comp)
	if len(res.Rows) == 0 {
		t.Fatal("no correlation rows")
	}
	for _, r := range res.Rows {
		// Communication is exactly proportional to Fed-SAC usage.
		if r.BytesCorr < 0.999 {
			t.Fatalf("%s: bytes correlation %.4f, expected ~1", r.Method, r.BytesCorr)
		}
		// Time (dominated by the modelled network component) is nearly so.
		if r.TimeCorr < 0.9 {
			t.Fatalf("%s: time correlation %.4f, expected near 1", r.Method, r.TimeCorr)
		}
	}
	h.PrintFig10(res)
}

func TestFig11Shape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	res, err := h.RunFig11(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 4 {
		t.Fatalf("levels: %v", res.Levels)
	}
	get := func(method, level string) float64 {
		for _, r := range res.Rows {
			if r.Method == method {
				return r.Errors[level]
			}
		}
		t.Fatalf("method %s missing (have %v)", method, res.Rows)
		return 0
	}
	// Fed-AMPS must beat the landmark methods under congestion.
	for _, lvl := range []string{"Moderate", "Heavy"} {
		amps := get("fed-amps", lvl)
		alt := get("fed-alt-16", lvl)
		if amps >= alt {
			t.Fatalf("%s: Fed-AMPS (%.4f) should beat Fed-ALT-16 (%.4f)", lvl, amps, alt)
		}
	}
	// Static ALT degrades with congestion.
	staticName := ""
	for _, r := range res.Rows {
		if strings.HasPrefix(r.Method, "ALT-") {
			staticName = r.Method
		}
	}
	if get(staticName, "Heavy") <= get(staticName, "Free") {
		t.Fatalf("static ALT error should grow with congestion")
	}
	h.PrintFig11(res)
	if !strings.Contains(out.String(), "Fig. 11") {
		t.Fatal("missing Fig. 11 output")
	}
}

func TestFig12Shape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	res, err := h.RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d queue rows", len(res.Rows))
	}
	byKind := map[pq.Kind]pq.Counts{}
	for _, r := range res.Rows {
		byKind[r.Queue] = r.Counts
	}
	tm := byKind[pq.KindTMTree]
	heap := byKind[pq.KindHeap]
	// TM-tree's push-side comparisons approach the #push lower bound and
	// stay below the heap's (Fig. 12 headline).
	if tm.Build+tm.Merge >= heap.Build+heap.Merge {
		t.Fatalf("TM-tree push comparisons (%d) should beat heap (%d)",
			tm.Build+tm.Merge, heap.Build+heap.Merge)
	}
	if tm.Total() >= heap.Total() {
		t.Fatalf("TM-tree total (%d) should beat heap total (%d)", tm.Total(), heap.Total())
	}
	h.PrintFig12(res)
	if !strings.Contains(out.String(), "Fig. 12") {
		t.Fatal("missing Fig. 12 output")
	}
}

func TestRunAllTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	var out bytes.Buffer
	h := New(Config{
		Datasets:        []string{"CAL-S"},
		QueriesPerGroup: 2,
		NumGroups:       2,
		Landmarks:       4,
		MaxVertices:     150,
		Out:             &out,
	})
	// RunAll drives every experiment through the exact cmd/fedbench path.
	// Fig. 1/9 internals are downscaled via the config already; shrink the
	// heavy ones by calling them individually where RunAll uses defaults.
	if err := h.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fig. 1", "Table I", "Fig. 7", "Fig. 8", "Fig. 9",
		"Table II", "Fig. 10", "Fig. 11", "Fig. 12",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}
