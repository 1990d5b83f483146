package ch

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// fuzzEnv builds one small valid index and serializes it, shared across all
// fuzz executions (the corpus mutates the bytes, not the build).
type fuzzEnv struct {
	f      *fed.Federation
	public []byte
	shards [][]byte
	// wide is a 2,048-vertex federation with no index: past n ≈ 1,626 the
	// header's m ≤ numBase + n³ guard is vacuous, so only the loader's
	// allocate-as-records-arrive discipline stands between a lying header
	// and the allocator.
	wide *fed.Federation
}

var (
	fuzzOnce sync.Once
	fuzzed   *fuzzEnv
)

func getFuzzEnv(tb testing.TB) *fuzzEnv {
	fuzzOnce.Do(func() {
		g, w0 := graph.GenerateGrid(4, 5, 17)
		sets := traffic.SiloWeights(w0, 2, traffic.Moderate, 18)
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: 19})
		if err != nil {
			tb.Fatal(err)
		}
		x, err := Build(f)
		if err != nil {
			tb.Fatal(err)
		}
		var pub bytes.Buffer
		if err := x.WritePublic(&pub); err != nil {
			tb.Fatal(err)
		}
		env := &fuzzEnv{f: f, public: pub.Bytes()}
		for p := 0; p < f.P(); p++ {
			var b bytes.Buffer
			if err := x.WriteSiloWeights(p, &b); err != nil {
				tb.Fatal(err)
			}
			env.shards = append(env.shards, b.Bytes())
		}
		gw, ww := graph.GenerateRoadLike(2048, 20)
		if env.wide, err = fed.New(gw, ww, traffic.SiloWeights(ww, 2, traffic.Moderate, 21), mpc.Params{Mode: mpc.ModeIdeal, Seed: 22}); err != nil {
			tb.Fatal(err)
		}
		fuzzed = env
	})
	return fuzzed
}

// publicHeader is a FROA header claiming m overlay arcs over f's graph.
func publicHeader(f *fed.Federation, m uint32) []byte {
	var b []byte
	for _, v := range []uint32{indexMagic, indexVersion, uint32(f.Graph().NumVertices()), m, uint32(f.Graph().NumArcs())} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// FuzzLoadIndexPublic feeds mutated public-structure bytes (alongside valid
// shards) into LoadIndex: it must either load a structurally valid index or
// return an error — never panic, hang, or hand back an index that violates
// the hierarchy invariants queries rely on. With wide set the bytes are
// loaded against the 2,048-vertex federation (and no shards).
func FuzzLoadIndexPublic(f *testing.F) {
	env := getFuzzEnv(f)
	f.Add(false, env.public)                     // the valid encoding
	f.Add(false, env.public[:len(env.public)/2]) // truncation
	f.Add(false, []byte{})                       // empty
	// A few targeted corruptions: header fields, arc table, skip records.
	for _, off := range []int{0, 4, 8, 12, 16, 20, 24, len(env.public) - 4} {
		if off >= 0 && off+4 <= len(env.public) {
			mut := append([]byte(nil), env.public...)
			mut[off] ^= 0xff
			f.Add(false, mut)
		}
	}
	f.Add(true, publicHeader(env.wide, 50_000_000)) // a 20-byte lie
	f.Fuzz(func(t *testing.T, wide bool, public []byte) {
		env := getFuzzEnv(t)
		fd := env.f
		shards := make([]io.Reader, len(env.shards))
		for p := range shards {
			shards[p] = bytes.NewReader(env.shards[p])
		}
		if wide {
			fd = env.wide
			shards = make([]io.Reader, fd.P())
			for p := range shards {
				shards[p] = bytes.NewReader(nil)
			}
		}
		x, err := LoadIndex(fd, bytes.NewReader(public), shards)
		if err != nil {
			return // clean rejection is the expected outcome for corrupt input
		}
		// Whatever loaded must satisfy the invariants LoadIndex validates;
		// spot-check the ones queries and updates depend on.
		n := fd.Graph().NumVertices()
		for a := int32(0); a < int32(x.NumArcs()); a++ {
			if int(x.Tail(a)) < 0 || int(x.Tail(a)) >= n || int(x.Head(a)) < 0 || int(x.Head(a)) >= n {
				t.Fatalf("loaded index has arc %d with out-of-range endpoints", a)
			}
			if v := x.Via(a); v != NoShortcut {
				if x.Rank(v) >= x.Rank(x.Tail(a)) || v == x.Tail(a) || v == x.Head(a) {
					t.Fatalf("loaded index has shortcut %d violating the via-rank invariant", a)
				}
				// Unpack must terminate and stay within simple-path length.
				if l := len(x.Unpack(a)); l > n+1 {
					t.Fatalf("shortcut %d unpacks to %d vertices (max %d)", a, l, n+1)
				}
			}
		}
	})
}

// FuzzReadIndex feeds mutated WriteIndex streams — the public part and every
// shard back to back, no framing — into ReadIndex: LoadIndex's validation
// over one shared reader must reject corruption cleanly — never panic, hang,
// over-allocate, or load an index violating query invariants.
func FuzzReadIndex(f *testing.F) {
	env := getFuzzEnv(f)
	valid := bytes.Join(append([][]byte{env.public}, env.shards...), nil)
	pub := len(env.public)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:pub]) // the public part, no shards
	f.Add([]byte{})
	// Header fields, the first shard's magic and silo ID, the last weight.
	for _, off := range []int{0, 4, 8, 12, 16, pub, pub + 8, len(valid) - 8} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		env := getFuzzEnv(t)
		x, err := ReadIndex(env.f, bytes.NewReader(stream), nil)
		if err != nil {
			return // clean rejection is the expected outcome for corrupt input
		}
		n := env.f.Graph().NumVertices()
		for a := int32(0); a < int32(x.NumArcs()); a++ {
			if int(x.Tail(a)) < 0 || int(x.Tail(a)) >= n || int(x.Head(a)) < 0 || int(x.Head(a)) >= n {
				t.Fatalf("loaded index has arc %d with out-of-range endpoints", a)
			}
			for p := 0; p < env.f.P(); p++ {
				if x.SiloWeight(p, a) <= 0 {
					t.Fatalf("loaded index has non-positive weight (silo %d, arc %d)", p, a)
				}
			}
		}
	})
}

// FuzzLoadIndexShard mutates one weight shard while keeping the public part
// valid: weights must be validated (positive, complete) or rejected cleanly.
func FuzzLoadIndexShard(f *testing.F) {
	env := getFuzzEnv(f)
	f.Add(env.shards[0])
	f.Add(env.shards[0][:8])
	f.Add([]byte{})
	for _, off := range []int{0, 4, 8, 12, 16, 24} {
		if off+4 <= len(env.shards[0]) {
			mut := append([]byte(nil), env.shards[0]...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, shard0 []byte) {
		env := getFuzzEnv(t)
		shards := make([]io.Reader, len(env.shards))
		shards[0] = bytes.NewReader(shard0)
		for p := 1; p < len(env.shards); p++ {
			shards[p] = bytes.NewReader(env.shards[p])
		}
		x, err := LoadIndex(env.f, bytes.NewReader(env.public), shards)
		if err != nil {
			return
		}
		for a := int32(0); a < int32(x.NumArcs()); a++ {
			for p := 0; p < env.f.P(); p++ {
				if x.SiloWeight(p, a) <= 0 {
					t.Fatalf("loaded index has non-positive weight (silo %d, arc %d)", p, a)
				}
			}
		}
	})
}
