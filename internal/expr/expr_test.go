package expr

import (
	"bytes"
	"strings"
	"testing"
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
	comp, err := h.comparative()
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 1 || len(comp[0].rows) != 6 {
		t.Fatalf("got %d datasets", len(comp))
	}
	for _, rs := range comp[0].rows {
		if len(rs) != 3 {
			t.Fatalf("%s: got %d groups", rs[0].name, len(rs))
		}
	}
	// The Fig. 7 headline: the full stack beats Naive-Dijk on comparisons in
	// the longest-query group.
	var naive, full int64
	for _, rs := range comp[0].rows {
		switch longest := rs[len(rs)-1]; longest.name {
		case "Naive-Dijk":
			naive = longest.avg.Compares
		case "+TM-tree":
			full = longest.avg.Compares
		}
	}
	if naive == 0 || full == 0 {
		t.Fatal("missing method rows")
	}
	if full >= naive {
		t.Fatalf("full stack (%d comparisons) should beat Naive-Dijk (%d)", full, naive)
	}
	if err := h.Fig7(); err != nil {
		t.Fatal(err)
	}
	if err := h.Fig8(); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 7") || !strings.Contains(s, "Naive-Dijk") {
		t.Fatalf("output missing expected content:\n%s", s)
	}
}

func TestScalabilityShape(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	silos := []int{2, 4}
	byMethod, err := h.scalability("CAL-S", silos)
	if err != nil {
		t.Fatal(err)
	}
	if len(byMethod) != 4 {
		t.Fatalf("got %d methods", len(byMethod))
	}
	// More silos means more bytes per comparison, hence more modelled time.
	for _, rs := range byMethod {
		if len(rs) != 2 || rs[0].env.Fed.P() != 2 || rs[1].env.Fed.P() != 4 {
			t.Fatalf("%s: rows do not follow the silo axis", rs[0].name)
		}
		if m := rs[0].name; m == "Naive-Dijk" || m == "+TM-tree" {
			if b2, b4 := rs[0].avg.Bytes, rs[1].avg.Bytes; b4 <= b2 {
				t.Fatalf("%s: bytes did not grow with silos (%d vs %d)", m, b2, b4)
			}
		}
	}
	h.printFig9("CAL-S", silos, byMethod)
	if !strings.Contains(out.String(), "--- CAL-S (first hop group) ---") {
		t.Fatal("missing Fig. 9 output")
	}
}

// TestHarnessKeepsOnlyDefaultEnvironments: Fig. 9's per-silo-count
// federations and Table II's per-percentage ones are built for their own
// rows and dropped, so the harness keeps only Env's default environments.
func TestHarnessKeepsOnlyDefaultEnvironments(t *testing.T) {
	var out bytes.Buffer
	h := tinyHarness(&out)
	env, err := h.Env("CAL-S")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Fig9(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunTab2(); err != nil {
		t.Fatal(err)
	}
	if len(h.envs) != 1 || h.envs["CAL-S"] != env {
		t.Fatalf("harness keeps %d environments, want only CAL-S's default one", len(h.envs))
	}
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
	comp, err := h.comparative()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range comp[0].rows {
		sacs, times, bytes := perQuery(rs)
		if len(sacs) < 3 {
			t.Fatalf("%s: %d queries", rs[0].name, len(sacs))
		}
		// Communication is exactly proportional to Fed-SAC usage.
		if r := pearson(sacs, bytes); r < 0.999 {
			t.Fatalf("%s: bytes correlation %.4f, expected ~1", rs[0].name, r)
		}
		// Time (dominated by the modelled network component) is nearly so.
		if r := pearson(sacs, times); r < 0.9 {
			t.Fatalf("%s: time correlation %.4f, expected near 1", rs[0].name, r)
		}
	}
	if err := h.Fig10(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 10") {
		t.Fatal("missing Fig. 10 output")
	}
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
