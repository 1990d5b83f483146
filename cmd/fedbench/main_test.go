package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/graph"
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

// TestWeightlessGraphWarns: a -graph binary snapshot without a weight section
// prints the unit-weights WARNING, both where it joins the dataset list and
// in the large tier, whose report records it.
func TestWeightlessGraphWarns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "weightless.frgb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.GenerateRoadLike(60, 1)
	if err := graph.WriteBinary(f, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var warned bytes.Buffer
	defer func(w io.Writer, gf, jo string, q, l int) {
		stderr, *graphFile, *jsonOut, *queries, *landmarks = w, gf, jo, q, l
	}(stderr, *graphFile, *jsonOut, *queries, *landmarks)
	stderr = &warned
	*graphFile, *jsonOut, *queries, *landmarks = path, filepath.Join(dir, "large.json"), 2, 4
	const want = "has no weight section — using UNIT travel times"

	if _, err := harness(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warned.String(), "WARNING") || !strings.Contains(warned.String(), want) {
		t.Fatalf("harness over a weightless -graph warned %q", warned.String())
	}
	warned.Reset()
	if err := large(nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warned.String(), want) {
		t.Fatalf("large over a weightless -graph warned %q", warned.String())
	}
	data, err := os.ReadFile(*jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep expr.LargeReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.UnitWeights {
		t.Fatalf("large report does not record the unit weights: %s", data)
	}
}
