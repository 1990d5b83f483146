package ch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
)

// reload is a WriteIndex/ReadIndex cycle of a witness-built index against the
// federation's current silo weights.
func reload(t *testing.T, f *fed.Federation, x *Index) *Index {
	t.Helper()
	loaded, err := ReadIndex(f, bytes.NewReader(indexBytes(t, x)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 61)
	loaded := reload(t, f, x)

	if loaded.NumArcs() != x.NumArcs() || loaded.NumShortcuts() != x.NumShortcuts() {
		t.Fatalf("size mismatch after reload: %d/%d arcs, %d/%d shortcuts",
			loaded.NumArcs(), x.NumArcs(), loaded.NumShortcuts(), x.NumShortcuts())
	}
	for a := int32(0); a < int32(x.NumArcs()); a++ {
		if x.Tail(a) != loaded.Tail(a) || x.Head(a) != loaded.Head(a) || x.Via(a) != loaded.Via(a) {
			t.Fatalf("arc %d structure changed", a)
		}
		for p := 0; p < f.P(); p++ {
			if x.SiloWeight(p, a) != loaded.SiloWeight(p, a) {
				t.Fatalf("arc %d silo %d weight changed", a, p)
			}
		}
	}
	for v := graph.Vertex(0); int(v) < f.Graph().NumVertices(); v++ {
		if x.Rank(v) != loaded.Rank(v) {
			t.Fatalf("rank of %d changed", v)
		}
	}

	// Queries on the reloaded index stay exact.
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 30; trial++ {
		s := graph.Vertex(rng.IntN(f.Graph().NumVertices()))
		tt := graph.Vertex(rng.IntN(f.Graph().NumVertices()))
		want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt)
		if got := chQueryJoint(loaded, s, tt); got != want {
			t.Fatalf("reloaded index: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}

func TestReloadedIndexSupportsUpdates(t *testing.T) {
	f, x := buildTestIndex(t, 7, 7, 67)
	loaded := reload(t, f, x)

	// Dynamic update on the reloaded index: change weights, update, verify.
	g := f.Graph()
	rng := rand.New(rand.NewPCG(3, 3))
	changed := pickArcs(f, rng, g.NumArcs()/10)
	f = nextVersion(f, changed, func(a graph.Arc, ws []int64) {
		for p := range ws {
			ws[p] = f.StaticWeights()[a] + int64(rng.IntN(20000)) + 1
		}
	})
	loaded, _ = mustUpdate(t, loaded, f, changed)
	joint := f.JointWeights()
	for trial := 0; trial < 25; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(loaded, s, tt); got != want {
			t.Fatalf("post-update reloaded index: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}

// TestLoadIndexRejectsCorruptInput: a truncated or mis-tagged stream is
// refused.
func TestLoadIndexRejectsCorruptInput(t *testing.T) {
	f, x := buildTestIndex(t, 6, 6, 71)
	good := indexBytes(t, x)
	load := func(stream []byte) error {
		_, err := ReadIndex(f, bytes.NewReader(stream), nil)
		return err
	}
	if err := load(good); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	if err := load(good[:8]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff // corrupt magic
	if err := load(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	bad = append([]byte{}, good...)
	binary.LittleEndian.PutUint32(bad[4:], custVersion)
	if err := load(bad); err == nil {
		t.Fatal("a customized layout read as witness-built")
	}
}

// TestIndexBundleRoundTrip: the witness layout is the header, the ranks, one
// five-word record per shortcut and the skip records — no base arc and no
// weight — and it reloads with every partial re-summed from the weights.
func TestIndexBundleRoundTrip(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 79)
	stream := indexBytes(t, x)
	size := 20 + 4*len(x.rank) + 20*x.NumShortcuts()
	for _, recs := range x.hs.skips {
		size += 4
		for _, r := range recs {
			size += 12 + 4*len(r.witnessArcs)
		}
	}
	if len(stream) != size {
		t.Fatalf("stream is %d bytes, its layout %d", len(stream), size)
	}
	loaded := reload(t, f, x)
	if !bytes.Equal(indexBytes(t, loaded), stream) {
		t.Fatal("a reloaded index writes other bytes")
	}
	for i, part := range serializeAll(t, loaded) {
		if !bytes.Equal(part, serializeAll(t, x)[i]) {
			t.Fatalf("part %d of the reloaded index differs", i)
		}
	}
	checkShortcutInvariants(t, f, loaded)
}

func TestReadIndexRejectsCorruptBundle(t *testing.T) {
	f, x := buildTestIndex(t, 6, 6, 83)
	good := indexBytes(t, x)
	read := func(stream []byte) error {
		_, err := ReadIndex(f, bytes.NewReader(stream), nil)
		return err
	}
	if err := read(good); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	if err := read(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if err := read(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncations at various depths, and at the end of every section: the
	// header, the ranks, the shortcut records.
	n := len(x.rank)
	for _, cut := range []int{len(good) / 4, len(good) / 2, len(good) - 1, 20, 20 + 4*n, 20 + 4*n + 20*x.NumShortcuts()} {
		if err := read(good[:cut]); err == nil {
			t.Fatalf("stream truncated to %d/%d bytes accepted", cut, len(good))
		}
	}
	// A header claiming the most arcs the guard admits, on a stream that
	// ends after it, must error.
	nb := uint32(f.Graph().NumArcs())
	if err := read(witnessHeader(f, nb+uint32(n*n*n))); err == nil {
		t.Fatal("lying arc count accepted")
	}
	// A shortcut whose children do not compose it.
	if x.NumShortcuts() > 0 {
		bad = append([]byte{}, good...)
		binary.LittleEndian.PutUint32(bad[20+4*n+12:], 0) // first shortcut's first child
		if err := read(bad); err == nil {
			t.Fatal("a shortcut of the wrong children accepted")
		}
	}
}

// TestLoadIndexAllocatesByStreamNotHeader: on a 2,048-vertex graph the
// header's m ≤ numBase + n³ guard admits any 32-bit count, and a skip-record
// count is bounded only by n². The loader must allocate by the records that
// arrive: a 20-byte header claiming 50M arcs (954 MiB of up-front arrays
// before), the largest count the guard admits, and a valid shortcut-free
// stream whose first vertex claims n² skip records (128 MiB) all fail with
// EOF inside 4 MiB beyond what the graph's own arcs take.
func TestLoadIndexAllocatesByStreamNotHeader(t *testing.T) {
	env := getFuzzEnv(t)
	f, g := env.wide, env.wide.Graph()
	n, m := g.NumVertices(), g.NumArcs()
	skipLie := witnessHeader(f, uint32(m))
	for v := 0; v < n; v++ {
		skipLie = binary.LittleEndian.AppendUint32(skipLie, uint32(v))
	}
	skipLie = binary.LittleEndian.AppendUint32(skipLie, uint32(n*n))
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"50M arcs", witnessHeader(f, 50_000_000)},
		{"2^32-1 arcs", witnessHeader(f, 1<<32-1)},
		{"n² skip records", skipLie},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadIndex(f, bytes.NewReader(tc.stream), nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a truncated stream loaded", tc.name)
		}
		// Base arcs are the graph's: five words of them per arc are owed.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20+uint64(20*m) {
			t.Fatalf("%s: rejecting a %d-byte stream allocated %d bytes", tc.name, len(tc.stream), alloc)
		}
	}
}

// TestReadIndexRejectsBadWinnerTable: a customized stream's winner table must
// name one member of every pair group the skeleton has — a winner from
// another group, a winner past the arcs, a count above the skeleton's groups
// (on a stream that ends after it, or holding every real winner) and a table
// cut short are all refused.
func TestReadIndexRejectsBadWinnerTable(t *testing.T) {
	g, w0 := graph.GenerateGrid(6, 7, 77)
	f := customizeFederation(t, g, w0, 78)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	good := indexBytes(t, x)
	if _, err := ReadIndex(f, bytes.NewReader(good), sk); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	const at = 20 // the winner count follows the header
	nGrp := uint32(len(x.win))
	if got := binary.LittleEndian.Uint32(good[at:]); got != nGrp || len(good) != at+4+4*int(nGrp) {
		t.Fatalf("winner count %d at offset %d in a %d-byte stream, the plan has %d groups", got, at, len(good), nGrp)
	}
	with := func(off int, v uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for name, stream := range map[string][]byte{
		"winner from another group": with(at+4, uint32(x.win[1])),
		"winner past the arcs":      with(at+4, uint32(x.NumArcs())),
		"count past the stream":     with(at, 1<<31)[:at+4],
		"one group too many":        with(at, nGrp+1),
		"table cut short":           good[:at+4+4*int(nGrp)-2],
	} {
		if _, err := ReadIndex(f, bytes.NewReader(stream), sk); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// checkPartialsAreSums holds an index to the property its stream relies on:
// every shortcut's per-silo partial is the sum of its children's, so a
// loader derives every partial from the base weights. A customized index
// stores a partial per pair group, which must be its winner's.
func checkPartialsAreSums(t *testing.T, tag string, x *Index) {
	t.Helper()
	for g, w := range x.win {
		for p, gw := range x.grpW {
			if gw[g] != x.partial(p, w) {
				t.Fatalf("%s: pair group %d silo %d: partial %d, its winner %d's is %d", tag, g, p, gw[g], w, x.partial(p, w))
			}
		}
	}
	partials := arcPartials(x)
	for a := int32(x.numBase); a < int32(x.NumArcs()); a++ {
		ca, cb := x.children(a)
		for p, ws := range partials {
			if ws[a] != ws[ca]+ws[cb] {
				t.Fatalf("%s: shortcut %d silo %d: partial %d, its children (%d, %d) sum to %d",
					tag, a, p, ws[a], ca, cb, ws[ca]+ws[cb])
			}
		}
	}
}

// TestShortcutPartialsAreSumsOfChildren: on both index kinds, after the
// derivation, after every step of seeded update sequences and after a
// WriteIndex/ReadIndex cycle. A witness update rewires a shortcut onto newer
// arcs, so its children can follow it in arc order; the update re-sums along
// the child relation, not by arc ID.
func TestShortcutPartialsAreSumsOfChildren(t *testing.T) {
	for _, seed := range []uint64{41, 87, 93} {
		for _, customize := range []bool{false, true} {
			g, w0 := graph.GenerateGrid(8, 8, seed)
			f := customizeFederation(t, g, w0, seed+1)
			var sk *Skeleton
			x, err := Build(f)
			if customize {
				if sk, err = BuildSkeleton(g); err == nil {
					x, err = Customize(f, sk)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("seed %d customized %v", seed, customize)
			checkPartialsAreSums(t, tag+" derived", x)
			rng := rand.New(rand.NewPCG(seed, 7))
			for step, frac := range []float64{0.02, 0.3, 0.3, 0.12, 0.3, 0.05, 0.3, 0.3} {
				var changed []graph.Arc
				f, changed = jiggleWeights(f, rng, frac)
				x, _ = mustUpdate(t, x, f, changed)
				checkPartialsAreSums(t, fmt.Sprintf("%s update %d", tag, step), x)
			}
			loaded, err := ReadIndex(f, bytes.NewReader(indexBytes(t, x)), sk)
			if err != nil {
				t.Fatal(err)
			}
			checkPartialsAreSums(t, tag+" reloaded", loaded)
			for p, ws := range arcPartials(x) {
				if !slices.Equal(arcPartials(loaded)[p], ws) {
					t.Fatalf("%s: silo %d partials differ after the reload", tag, p)
				}
			}
		}
	}
}

// TestUpdateIgnoresArcOrder: an update opens the same pairs, in the
// same instances, whatever order the changed arcs are listed in — on both
// index kinds. What the silos see is recorded at the WithDecide seam.
func TestUpdateIgnoresArcOrder(t *testing.T) {
	g, w0 := graph.GenerateGrid(16, 16, 5)
	sk, err := BuildSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, customize := range []bool{false, true} {
		// transcript derives an index, changes 40 arcs and returns every
		// comparison the update opened, listing the arcs in the given order.
		transcript := func(order func([]graph.Arc)) []string {
			f := customizeFederation(t, g, w0, 5)
			var opened []string
			v := f.WithDecide(func(d fed.Decide) fed.Decide {
				return func(diffs [][]int64) ([]bool, error) {
					opened = append(opened, fmt.Sprint(diffs))
					return d(diffs)
				}
			})
			x, err := Build(v)
			if customize {
				x, err = Customize(v, sk)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(5, 5))
			changed := pickArcs(f, rng, 40)
			next := nextVersion(v, changed, func(a graph.Arc, ws []int64) {
				for p := range ws {
					ws[p] = w0[a] + rng.Int64N(60000) + 1
				}
			})
			order(changed)
			opened = nil
			mustUpdate(t, x, next, changed)
			return opened
		}
		want := transcript(func([]graph.Arc) {})
		if len(want) == 0 {
			t.Fatalf("customized %v: the update compared nothing", customize)
		}
		for s := uint64(0); s < 3; s++ {
			got := transcript(func(arcs []graph.Arc) {
				rand.New(rand.NewPCG(s, 11)).Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
			})
			if !slices.Equal(got, want) {
				t.Fatalf("customized %v, shuffle %d: the update opened other pairs than for the listed order", customize, s)
			}
		}
	}
}
