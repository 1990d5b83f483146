package ch

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/graph"
)

func TestIndexSerializationRoundTrip(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 61)

	var public bytes.Buffer
	if err := x.WritePublic(&public); err != nil {
		t.Fatal(err)
	}
	shards := make([]bytes.Buffer, f.P())
	for p := 0; p < f.P(); p++ {
		if err := x.WriteSiloWeights(p, &shards[p]); err != nil {
			t.Fatal(err)
		}
	}
	readers := make([]io.Reader, f.P())
	for p := range readers {
		readers[p] = &shards[p]
	}
	loaded, err := LoadIndex(f, &public, readers)
	if err != nil {
		t.Fatal(err)
	}

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
	var public bytes.Buffer
	if err := x.WritePublic(&public); err != nil {
		t.Fatal(err)
	}
	shards := make([]io.Reader, f.P())
	for p := 0; p < f.P(); p++ {
		var b bytes.Buffer
		if err := x.WriteSiloWeights(p, &b); err != nil {
			t.Fatal(err)
		}
		shards[p] = &b
	}
	loaded, err := LoadIndex(f, &public, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Dynamic update on the reloaded index: change weights, update, verify.
	g := f.Graph()
	rng := rand.New(rand.NewPCG(3, 3))
	var changed []graph.Arc
	for _, ai := range rng.Perm(g.NumArcs())[:g.NumArcs()/10] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			f.Silo(p).SetWeight(a, f.StaticWeights()[a]+int64(rng.IntN(20000))+1)
		}
	}
	if _, err := loaded.Update(changed); err != nil {
		t.Fatal(err)
	}
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

func TestLoadIndexRejectsCorruptInput(t *testing.T) {
	f, x := buildTestIndex(t, 6, 6, 71)
	var public bytes.Buffer
	if err := x.WritePublic(&public); err != nil {
		t.Fatal(err)
	}
	goodPublic := public.Bytes()

	shard := func(p int) []byte {
		var b bytes.Buffer
		if err := x.WriteSiloWeights(p, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	goodShards := [][]byte{shard(0), shard(1), shard(2)}
	load := func(pub []byte, sh [][]byte) error {
		rs := make([]io.Reader, len(sh))
		for i := range sh {
			rs[i] = bytes.NewReader(sh[i])
		}
		_, err := LoadIndex(f, bytes.NewReader(pub), rs)
		return err
	}

	if err := load(goodPublic, goodShards); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	if err := load(goodPublic[:8], goodShards); err == nil {
		t.Fatal("truncated public part accepted")
	}
	bad := append([]byte{}, goodPublic...)
	bad[0] ^= 0xff // corrupt magic
	if err := load(bad, goodShards); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	if err := load(goodPublic, [][]byte{goodShards[0], goodShards[1]}); err == nil {
		t.Fatal("missing shard accepted")
	}
	// Shards in the wrong order carry the wrong silo IDs.
	if err := load(goodPublic, [][]byte{goodShards[1], goodShards[0], goodShards[2]}); err == nil {
		t.Fatal("swapped shards accepted")
	}
	if err := load(goodPublic, [][]byte{goodShards[0], goodShards[1], goodShards[2][:10]}); err == nil {
		t.Fatal("truncated shard accepted")
	}
}

func TestIndexBundleRoundTrip(t *testing.T) {
	f, x := buildTestIndex(t, 8, 8, 79)
	var stream bytes.Buffer
	if err := x.WriteIndex(&stream); err != nil {
		t.Fatal(err)
	}
	// The stream is exactly the privacy-boundary parts, back to back.
	if want := bytes.Join(serializeAll(t, x), nil); !bytes.Equal(stream.Bytes(), want) {
		t.Fatal("WriteIndex is not WritePublic ‖ WriteSiloWeights(0..P−1)")
	}
	loaded, err := ReadIndex(f, &stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumArcs() != x.NumArcs() || loaded.NumShortcuts() != x.NumShortcuts() {
		t.Fatalf("size mismatch after stream reload: %d/%d arcs, %d/%d shortcuts",
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
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 30; trial++ {
		s := graph.Vertex(rng.IntN(f.Graph().NumVertices()))
		tt := graph.Vertex(rng.IntN(f.Graph().NumVertices()))
		want, _ := graph.DijkstraTo(f.Graph(), joint, s, tt)
		if got := chQueryJoint(loaded, s, tt); got != want {
			t.Fatalf("stream-reloaded index: dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
	}
}

func TestReadIndexRejectsCorruptBundle(t *testing.T) {
	f, x := buildTestIndex(t, 6, 6, 83)
	var stream bytes.Buffer
	if err := x.WriteIndex(&stream); err != nil {
		t.Fatal(err)
	}
	good := stream.Bytes()

	if _, err := ReadIndex(f, bytes.NewReader(good), nil); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	if _, err := ReadIndex(f, bytes.NewReader(nil), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if _, err := ReadIndex(f, bytes.NewReader(bad), nil); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncations at various depths, and at the end of every part.
	cuts := []int{len(good) / 4, len(good) / 2, len(good) - 1}
	at := 0
	for _, part := range serializeAll(t, x)[:f.P()] {
		at += len(part)
		cuts = append(cuts, at)
	}
	for _, cut := range cuts {
		if _, err := ReadIndex(f, bytes.NewReader(good[:cut]), nil); err == nil {
			t.Fatalf("stream truncated to %d/%d bytes accepted", cut, len(good))
		}
	}
	// A header claiming the most arcs the guard admits, on a stream that
	// ends after it, must error.
	n, nb := uint32(f.Graph().NumVertices()), uint32(f.Graph().NumArcs())
	if _, err := ReadIndex(f, bytes.NewReader(publicHeader(f, nb+n*n*n)), nil); err == nil {
		t.Fatal("lying arc count accepted")
	}
}

// TestLoadIndexAllocatesByStreamNotHeader: on a 2,048-vertex graph the
// header's m ≤ numBase + n³ guard admits any 32-bit count, and a skip-record
// count is bounded only by n². The loader must allocate by the records that
// arrive: a 20-byte header claiming 50M arcs (954 MiB of up-front arrays
// before), the largest count the guard admits, and a valid base-only public
// part whose first vertex claims n² skip records (128 MiB) all fail with EOF
// inside 4 MiB.
func TestLoadIndexAllocatesByStreamNotHeader(t *testing.T) {
	env := getFuzzEnv(t)
	f, g := env.wide, env.wide.Graph()
	n, m := g.NumVertices(), g.NumArcs()
	skipLie := publicHeader(f, uint32(m))
	for v := 0; v < n; v++ {
		skipLie = binary.LittleEndian.AppendUint32(skipLie, uint32(v))
	}
	for a := 0; a < m; a++ {
		for _, v := range []uint32{uint32(g.Tail(graph.Arc(a))), uint32(g.Head(graph.Arc(a))), ^uint32(0), 0, 0} {
			skipLie = binary.LittleEndian.AppendUint32(skipLie, v)
		}
	}
	skipLie = binary.LittleEndian.AppendUint32(skipLie, uint32(n*n))
	for _, tc := range []struct {
		name   string
		public []byte
	}{
		{"50M arcs", publicHeader(f, 50_000_000)},
		{"2^32-1 arcs", publicHeader(f, 1<<32-1)},
		{"n² skip records", skipLie},
	} {
		shards := make([]io.Reader, f.P())
		for p := range shards {
			shards[p] = bytes.NewReader(nil)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadIndex(f, bytes.NewReader(tc.public), shards)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a truncated stream loaded", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s: rejecting a %d-byte stream allocated %d bytes", tc.name, len(tc.public), alloc)
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
	at := 20 + 4*len(x.rank) + 12*x.NumArcs() // the winner count
	nGrp := uint32(len(x.win))
	if got := binary.LittleEndian.Uint32(good[at:]); got != nGrp {
		t.Fatalf("winner count %d at offset %d, the plan has %d groups", got, at, nGrp)
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

func TestWriteSiloWeightsRange(t *testing.T) {
	_, x := buildTestIndex(t, 5, 5, 73)
	var b bytes.Buffer
	if err := x.WriteSiloWeights(99, &b); err == nil {
		t.Fatal("out-of-range silo accepted")
	}
}
