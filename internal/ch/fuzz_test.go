package ch

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// fuzzEnv builds one small valid index of each kind and serializes it,
// shared across all fuzz executions (the corpus mutates the bytes, not the
// build).
type fuzzEnv struct {
	f      *fed.Federation
	stream []byte // witness-built
	// sk is f's skeleton and cust the stream of its customization.
	sk   *Skeleton
	cust []byte
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
		var b bytes.Buffer
		if err := x.WriteIndex(&b); err != nil {
			tb.Fatal(err)
		}
		env := &fuzzEnv{f: f, stream: b.Bytes()}
		if env.sk, err = BuildSkeleton(g); err != nil {
			tb.Fatal(err)
		}
		cx, err := Customize(f, env.sk)
		if err != nil {
			tb.Fatal(err)
		}
		var c bytes.Buffer
		if err := cx.WriteIndex(&c); err != nil {
			tb.Fatal(err)
		}
		env.cust = c.Bytes()
		gw, ww := graph.GenerateRoadLike(2048, 20)
		if env.wide, err = fed.New(gw, ww, traffic.SiloWeights(ww, 2, traffic.Moderate, 21), mpc.Params{Mode: mpc.ModeIdeal, Seed: 22}); err != nil {
			tb.Fatal(err)
		}
		fuzzed = env
	})
	return fuzzed
}

// witnessHeader is a witness-layout header claiming m overlay arcs over f's
// graph.
func witnessHeader(f *fed.Federation, m uint32) []byte {
	var b []byte
	for _, v := range []uint32{indexMagic, witnessVersion, uint32(f.Graph().NumVertices()), m, uint32(f.Graph().NumArcs())} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// FuzzLoadIndexPublic feeds mutated witness-layout streams — the index's
// public structure, all a stream holds — into ReadIndex, with the
// federation's valid silo weights: it must either load a structurally valid
// index or return an error — never panic, hang, over-allocate, or hand back
// an index that violates the hierarchy invariants queries rely on. With wide
// set the bytes are loaded against the 2,048-vertex federation.
func FuzzLoadIndexPublic(f *testing.F) {
	env := getFuzzEnv(f)
	valid := env.stream
	rec := 20 + 4*env.f.Graph().NumVertices() // the first shortcut record
	f.Add(false, valid)
	f.Add(false, valid[:len(valid)/2])
	f.Add(false, valid[:20]) // the header alone
	f.Add(false, []byte{})
	// Header fields, the first rank, the first shortcut record's tail, via
	// and first child, the last skip-record word.
	for _, off := range []int{0, 4, 8, 12, 16, 20, rec, len(valid) - 4, rec + 8, rec + 12} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(false, mut)
	}
	f.Add(true, witnessHeader(env.wide, 50_000_000)) // a 20-byte lie
	f.Fuzz(func(t *testing.T, wide bool, stream []byte) {
		env := getFuzzEnv(t)
		fd := env.f
		if wide {
			fd = env.wide
		}
		x, err := ReadIndex(fd, bytes.NewReader(stream), nil)
		if err != nil {
			return // clean rejection is the expected outcome for corrupt input
		}
		// Whatever loaded must satisfy the invariants ReadIndex validates;
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
			for p := 0; p < fd.P(); p++ {
				if x.SiloWeight(p, a) <= 0 {
					t.Fatalf("loaded index has non-positive weight (silo %d, arc %d)", p, a)
				}
			}
		}
	})
}

// FuzzReadIndex feeds mutated customized-layout streams into ReadIndex with
// the skeleton they were derived from: the winner table must name one member
// of every pair group or be refused, and whatever loads must re-sum every
// shortcut's partials from its children.
func FuzzReadIndex(f *testing.F) {
	env := getFuzzEnv(f)
	valid := env.cust
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:24]) // the header and the winner count
	f.Add([]byte{})
	// Header fields, the winner count, the first and the last winner.
	for _, off := range []int{0, 4, 8, 12, 16, 20, 24, len(valid) - 4} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// The first group's winner swapped for the second group's.
	mut := append([]byte(nil), valid...)
	copy(mut[24:28], valid[28:32])
	f.Add(mut)
	f.Fuzz(func(t *testing.T, stream []byte) {
		env := getFuzzEnv(t)
		x, err := ReadIndex(env.f, bytes.NewReader(stream), env.sk)
		if err != nil {
			return // clean rejection is the expected outcome for corrupt input
		}
		pl := env.sk.Plan()
		for g, a := range x.win {
			if pl.groupOf[a] != int32(g) {
				t.Fatalf("loaded winner %d of pair group %d is not one of its members", a, g)
			}
		}
		partials := arcPartials(x)
		for a := int32(0); a < int32(x.NumArcs()); a++ {
			for p, ws := range partials {
				if ws[a] <= 0 {
					t.Fatalf("loaded index has non-positive weight (silo %d, arc %d)", p, a)
				}
				if x.Via(a) == NoShortcut {
					continue
				}
				if ca, cb := x.children(a); ws[a] != ws[ca]+ws[cb] {
					t.Fatalf("loaded shortcut %d silo %d: partial %d, its children sum to %d", a, p, ws[a], ws[ca]+ws[cb])
				}
			}
		}
	})
}
