package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/expr"
)

// TestRunAllTinyEndToEnd walks `fedbench all` — the entries of the
// experiment list marked all — on a tiny harness.
func TestRunAllTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	var out bytes.Buffer
	h := expr.New(expr.Config{
		Datasets:        []string{"CAL-S"},
		QueriesPerGroup: 2,
		NumGroups:       2,
		Landmarks:       4,
		MaxVertices:     150,
		Out:             &out,
	})
	if err := runAll(h); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fig. 1", "Table I", "Fig. 7", "Fig. 8", "Fig. 9",
		"Table II", "Fig. 10", "Fig. 11", "Fig. 12",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("all output missing %q", want)
		}
	}
	if strings.Contains(out.String(), "Ablation") {
		t.Fatal("all ran the ablations, which are not part of it")
	}
}
