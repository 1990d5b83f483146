package main

import (
	"fmt"
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

// fedserver's start-up derivation serves a customized index under the
// default flags, derives nothing under -no-index, and keeps a restored
// witness snapshot serving the index it holds, with no skeleton beside it.
func TestStartupDerivesWhatItServes(t *testing.T) {
	fresh := func() *fedroad.Federation {
		f, _ := persistFed(t)
		t.Cleanup(f.Close)
		return f
	}
	derive := func(f *fedroad.Federation, noIndex, customize bool) string {
		t.Helper()
		line, err := deriveIndex(f, noIndex, customize)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	// Both index kinds log one line in the same units.
	reported := func(f *fedroad.Federation, line string) {
		t.Helper()
		st := f.IndexStats()
		if !strings.Contains(line, fmt.Sprintf("%d shortcuts", st.Shortcuts)) ||
			!strings.Contains(line, fmt.Sprintf("(%d Fed-SACs, %d MPC rounds)", st.SAC.Compares, st.SAC.Rounds)) {
			t.Fatalf("start-up line %q does not report the derivation's shortcuts, Fed-SACs and MPC rounds", line)
		}
	}

	f := fresh()
	line := derive(f, *noIndex, *customize)
	if !f.HasIndex() || !f.IndexStats().Customized {
		t.Fatalf("default flags serve no customized index: %q", line)
	}
	reported(f, line)

	f = fresh()
	derive(f, true, *customize)
	if f.HasSkeleton() || f.HasIndex() {
		t.Fatalf("-no-index derived a skeleton (%v) or an index (%v)", f.HasSkeleton(), f.HasIndex())
	}

	// A witness snapshot, as a -customize=false start writes it, restored.
	restored := func(dir string) (*fedroad.Federation, *persister) {
		f := fresh()
		p, err := newPersister(f, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Restore(); err != nil {
			t.Fatal(err)
		}
		return f, p
	}
	dir := t.TempDir()
	f, p := restored(dir)
	reported(f, derive(f, false, false))
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	f, p = restored(dir)
	defer p.Close()
	line = derive(f, *noIndex, *customize)
	if !f.HasIndex() || f.IndexStats().Customized || f.HasSkeleton() {
		t.Fatalf("restored witness snapshot: index %v, customized %v, skeleton %v (%q)",
			f.HasIndex(), f.IndexStats().Customized, f.HasSkeleton(), line)
	}
	m := f.Metrics().Snapshot()
	if n := m["fedroad_index_builds_total"] + m["fedroad_index_customizes_total"]; n != 0 || m["fedroad_index_skeleton_present"] != 0 {
		t.Fatalf("restored witness snapshot: %v MPC derivations, skeleton_present %v", n, m["fedroad_index_skeleton_present"])
	}
}
