package main

import (
	"strings"
	"testing"

	fedroad "repro"
)

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
