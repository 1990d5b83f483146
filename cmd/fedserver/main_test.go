package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	fedroad "repro"
)

// Regression: an unknown -dataset used to panic deep inside GenerateDataset
// (its other callers hard-wire names); a user typo must produce a clean error
// that lists what IS available.
func TestLoadNetworkUnknownDataset(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("loadNetwork panicked on unknown dataset: %v", r)
		}
	}()
	_, _, _, err := loadNetwork("CAL-XXL", "", 100, 1)
	if err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if !strings.Contains(err.Error(), "CAL-XXL") || !strings.Contains(err.Error(), "CAL-S") {
		t.Fatalf("error %q neither names the bad dataset nor lists the available ones", err)
	}
}

func TestLoadNetworkKnownDataset(t *testing.T) {
	g, w0, unit, err := loadNetwork("CAL-S", "", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || len(w0) != g.NumArcs() || unit {
		t.Fatalf("CAL-S load: g=%v len(w0)=%d unit=%v", g != nil, len(w0), unit)
	}
}

func TestLoadNetworkGenerated(t *testing.T) {
	g, w0, unit, err := loadNetwork("", "", 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 80 || len(w0) != g.NumArcs() || unit {
		t.Fatalf("generated load: n=%d len(w0)=%d unit=%v", g.NumVertices(), len(w0), unit)
	}
}

// A weightless binary snapshot gets unit travel times fabricated — and the
// fabrication must be reported so main can warn and /stats can surface it.
func TestLoadNetworkWeightlessGraphFile(t *testing.T) {
	g, _ := fedroad.GenerateRoadNetwork(50, 11)
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fedroad.SaveGraphBinary(f, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lg, w0, unit, err := loadNetwork("", path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !unit {
		t.Fatal("weightless graph file did not report fabricated unit weights")
	}
	if lg.NumArcs() != g.NumArcs() || len(w0) != g.NumArcs() {
		t.Fatalf("loaded %d arcs with %d weights, want %d", lg.NumArcs(), len(w0), g.NumArcs())
	}
	for a, w := range w0 {
		if w != 1 {
			t.Fatalf("fabricated weight w0[%d] = %d, want 1", a, w)
		}
	}
}

// A weighted graph file must NOT be flagged.
func TestLoadNetworkWeightedGraphFile(t *testing.T) {
	g, w := fedroad.GenerateRoadNetwork(50, 13)
	path := filepath.Join(t.TempDir(), "g.gr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fedroad.SaveGraph(f, g, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, w0, unit, err := loadNetwork("", path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if unit {
		t.Fatal("weighted graph file flagged as unit weights")
	}
	if len(w0) != g.NumArcs() {
		t.Fatalf("loaded %d weights, want %d", len(w0), g.NumArcs())
	}
}

// -reindex-interval is refused beside a customized index, asked for with
// -customize or restored from a customized snapshot, and the error says why;
// a witness index, built or restored, keeps its periodic rebuild.
func TestReindexRefusedBesideCustomizedIndex(t *testing.T) {
	// open starts a fedserver's federation on dir, restoring what it holds.
	open := func(dir string) (*fedroad.Federation, *persister) {
		f, _ := persistFed(t)
		t.Cleanup(f.Close)
		p, err := newPersister(f, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Restore(); err != nil {
			t.Fatal(err)
		}
		return f, p
	}
	// snapshot derives an index with derive and snapshots it, as fedserver
	// does before it serves.
	snapshot := func(f *fedroad.Federation, p *persister, derive func() error) {
		if err := derive(); err != nil {
			t.Fatal(err)
		}
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: -reindex-interval accepted beside a customized index", what)
		}
		if msg := err.Error(); !strings.Contains(msg, "customized") || !strings.Contains(msg, "in-place") {
			t.Fatalf("%s: refusal %q does not say why", what, msg)
		}
	}

	dir := t.TempDir()
	f, p := open(dir)
	if err := refuseReindex(f, false); err != nil {
		t.Fatalf("witness deployment refused: %v", err)
	}
	refused("-customize", refuseReindex(f, true))
	snapshot(f, p, f.BuildIndex)
	f, p = open(dir)
	if !f.HasIndex() {
		t.Fatal("the witness snapshot restored no index")
	}
	if err := refuseReindex(f, false); err != nil {
		t.Fatalf("restored witness index refused: %v", err)
	}
	p.Close()

	dir = t.TempDir()
	f, p = open(dir)
	snapshot(f, p, f.CustomizeIndex)
	f, p = open(dir)
	defer p.Close()
	if !f.IndexStats().Customized {
		t.Fatal("the customized snapshot restored no customized index")
	}
	refused("restored customized snapshot", refuseReindex(f, false))
}
