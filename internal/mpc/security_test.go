package mpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// securityBatchSizes are the kernel widths the transcript tests run at: a
// single comparison, a ragged sub-byte batch and a ragged multi-word batch.
var securityBatchSizes = []int{1, 5, 70}

// runRecorded executes one k-batch through the kernel over an in-memory mesh
// and returns the result bits with party 0's outgoing frames — one party's
// view of what it put on the wire. diffs is [instance][party]; the dealer
// seed determines the masking randomness, so different seeds give
// independently masked runs.
func runRecorded(t *testing.T, diffs [][]int64, dealerSeed uint64) ([]bool, [][]byte) {
	t.Helper()
	out, sent, _ := runKernel(t, len(diffs[0]), dealerSeed, diffs)
	return out, sent[0]
}

// repeatInstance builds a k-batch of the same n-party instance.
func repeatInstance(d []int64, k int) [][]int64 {
	diffs := make([][]int64, k)
	for i := range diffs {
		diffs[i] = d
	}
	return diffs
}

// TestTranscriptIsMasked: running the protocol twice on the *same inputs*
// with fresh randomness must produce entirely different wire frames (except
// small openings that may coincide by chance) — the transcript is uniformly
// masked, so an observer of one run learns nothing about the inputs.
func TestTranscriptIsMasked(t *testing.T) {
	for _, k := range securityBatchSizes {
		diffs := repeatInstance([]int64{123456, -99999, -30000}, k)
		res1, sent1 := runRecorded(t, diffs, 1)
		res2, sent2 := runRecorded(t, diffs, 2)
		if !slices.Equal(res1, res2) {
			t.Fatalf("k=%d: same inputs produced different comparison results", k)
		}
		if len(sent1) != len(sent2) {
			t.Fatalf("k=%d: frame counts differ: %d vs %d", k, len(sent1), len(sent2))
		}
		// Only frames of at most ⌈k/8⌉ bytes may coincide by chance: the
		// result shares. Every longer masked frame must differ, the carry
		// level's 14 masked bits at k = 1 included.
		for i := range sent1 {
			if len(sent1[i]) > streamBytes(k) && bytes.Equal(sent1[i], sent2[i]) {
				t.Fatalf("k=%d: frame %d (%d B) identical across independently masked runs", k, i, len(sent1[i]))
			}
		}
	}
}

// TestInputSharesDoNotRevealInput: the fused masked opening party 0 sends in
// round 1 carries m_i = d_i + r_i per instance; no m_i may equal the raw
// input, and each must change across runs (r is a fresh uniform mask per
// dealer stream).
func TestInputSharesDoNotRevealInput(t *testing.T) {
	for _, k := range securityBatchSizes {
		diffs := repeatInstance([]int64{424242, 0, 0}, k)
		_, sent1 := runRecorded(t, diffs, 3)
		_, sent2 := runRecorded(t, diffs, 4)
		// Round 1 frames are the first n-1 sends, 6k bytes each: one
		// 48-bit ring element per instance.
		for f := 0; f < 2; f++ {
			if len(sent1[f]) != 6*k || len(sent2[f]) != 6*k {
				t.Fatalf("k=%d: round-1 frames are %d and %d bytes, want %d", k, len(sent1[f]), len(sent2[f]), 6*k)
			}
			for i := 0; i < k; i++ {
				v1 := getU48(sent1[f][6*i:])
				v2 := getU48(sent2[f][6*i:])
				if v1 == uint64(diffs[i][0]) || v2 == uint64(diffs[i][0]) {
					t.Fatalf("k=%d: raw input of instance %d appeared on the wire", k, i)
				}
				if v1 == v2 {
					t.Fatalf("k=%d: masked opening of instance %d did not change across runs", k, i)
				}
			}
		}
	}
}

// TestOpeningsAreUniform: for a fixed D, every opened bit of a run other
// than the result is set about half the time over 4,096 independently dealt
// lanes — each of the 48 bits of C = D + R mod 2^48, bits 40–47 included,
// where a FedRoad difference (|D| < 2^47) keeps its sign, and each of the
// 14 masked wires of the carry level — for D = −1 (every bit set) and
// D = 2^40 (one sign-region bit set). So the 48-bit mask covers the sign,
// and no carry-level mask is left out.
func TestOpeningsAreUniform(t *testing.T) {
	const runs, k = 64, 64
	for _, d := range [][]int64{{-1, 0, 0}, {1 << 39, 1 << 39, 0}} {
		n := len(d)
		var cBits [K]int
		wireBits := make([]int, MasksPerCompare)
		for seed := uint64(0); seed < runs; seed++ {
			_, sent, _ := runKernel(t, n, 900+seed, repeatInstance(d, k))
			// Party p's frames, each sent to its n−1 peers: round r's is
			// sent[p][r·(n−1)].
			for i := 0; i < k; i++ {
				var c uint64
				for p := range sent {
					c += getU48(sent[p][0][6*i:])
				}
				for b := range cBits {
					cBits[b] += int(c >> b & 1)
				}
			}
			wire := 0
			for level := 1; level < RoundsPerCompare-1; level++ {
				for j := 0; j < openedWires(circuit[level]); j, wire = j+1, wire+1 {
					for i := 0; i < k; i++ {
						var o byte
						for p := range sent {
							o ^= unpackBit(sent[p][level*(n-1)], j*k+i)
						}
						wireBits[wire] += int(o)
					}
				}
			}
		}
		total := float64(runs * k)
		uniform := func(what string, set int) {
			if dev := math.Abs(float64(set) - total/2); dev > 4*math.Sqrt(total)/2 {
				t.Fatalf("D = %v: %s set %d of %.0f times, beyond 4σ of half", d, what, set, total)
			}
		}
		for b, set := range cBits {
			uniform(fmt.Sprintf("bit %d of C", b), set)
		}
		for w, set := range wireBits {
			uniform(fmt.Sprintf("opened carry wire %d", w), set)
		}
	}
}

// TestComparisonResultDataIndependentCost: the wire cost must not depend on
// the input values (data-obliviousness — a cost side channel would leak).
func TestComparisonResultDataIndependentCost(t *testing.T) {
	sizes := func(diffs [][]int64, seed uint64) []int {
		_, sent := runRecorded(t, diffs, seed)
		out := make([]int, len(sent))
		for i, f := range sent {
			out[i] = len(f)
		}
		return out
	}
	for _, k := range securityBatchSizes {
		a := sizes(repeatInstance([]int64{0, 0, 0}, k), 5)
		b := sizes(repeatInstance([]int64{1 << 44, -(1 << 44), 12345}, k), 6)
		if !slices.Equal(a, b) {
			t.Fatalf("k=%d: frame sizes depend on inputs: %v vs %v", k, a, b)
		}
	}
}

// dialLanes brings up an n-party mux mesh over localhost TCP — every party
// dialing by address, the integration path a multi-machine deployment uses —
// and returns one lane per party. The meshes close with the test, after
// every party is done: a party that hangs up early fails its peers' last
// receive.
func dialLanes(t *testing.T, n int) []transport.Conn {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	meshes := make([]*transport.Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			meshes[p], errs[p] = transport.DialMeshMux(p, n, addrs, transport.MeshOptions{DialTimeout: 5 * time.Second})
		}(p)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
	})
	lanes := make([]transport.Conn, n)
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
		lanes[p] = meshes[p].Lane(transport.FirstSessionLane)
	}
	return lanes
}

// TestProtocolOverRealTCP runs the comparison across a real localhost TCP
// mesh.
func TestProtocolOverRealTCP(t *testing.T) {
	const n = 3
	lanes := dialLanes(t, n)
	blocks := NewDealer(n, 77).CmpTuples()
	diffs := []int64{-500, 200, 200} // sum -100 < 0
	results := make([][]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = RunCompareBatchParty(lanes[p], diffs[p:p+1], []*TupleBlock{&blocks[p]})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	for p := 0; p < n; p++ {
		if !results[p][0] {
			t.Fatalf("party %d got false, want true", p)
		}
	}
}

// TestProtocolManyComparisonsOverTCP stresses frame ordering: many
// back-to-back comparisons over the same lane.
func TestProtocolManyComparisonsOverTCP(t *testing.T) {
	const n = 3
	lanes := dialLanes(t, n)
	dealer := NewDealer(n, 78)
	const rounds = 20
	batches := make([][]TupleBlock, rounds)
	inputs := make([][]int64, rounds)
	wants := make([]bool, rounds)
	rng := rand.New(rand.NewPCG(6, 6))
	for r := 0; r < rounds; r++ {
		batches[r] = dealer.CmpTuples()
		inputs[r] = make([]int64, n)
		var sum int64
		for p := 0; p < n; p++ {
			inputs[r][p] = rng.Int64N(2_000_001) - 1_000_000
			sum += inputs[r][p]
		}
		wants[r] = sum < 0
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := RunCompareBatchParty(lanes[p], inputs[r][p:p+1], []*TupleBlock{&batches[r][p]})
				if err != nil {
					errs[p] = err
					return
				}
				if got[0] != wants[r] {
					errs[p] = &mismatchError{round: r}
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
}

type mismatchError struct{ round int }

func (e *mismatchError) Error() string { return "comparison result mismatch" }

// openingRecorder is party 0's endpoint with a tap on round 1: it sums
// party 0's masked frame and every peer's into the openings C = D + R that
// party 0 learns, one per instance, and appends them to out. Each round is a
// broadcast — n−1 Sends, then n−1 Recvs — so round 1 is the first 2(n−1)
// operations of every RoundsPerCompare·2(n−1).
type openingRecorder struct {
	transport.Conn
	ops int
	sum []uint64
	out *[]uint64
}

func (r *openingRecorder) tap(frame []byte) {
	pos, peers := r.ops%(RoundsPerCompare*2*(r.N()-1)), r.N()-1
	r.ops++
	switch {
	case pos == 0:
		r.sum = r.sum[:0]
		for i := 0; i+openBytes <= len(frame); i += openBytes {
			r.sum = append(r.sum, getU48(frame[i:]))
		}
	case pos >= peers && pos < 2*peers:
		for i := range r.sum {
			r.sum[i] = (r.sum[i] + getU48(frame[openBytes*i:])) & (1<<K - 1)
		}
		if pos == 2*peers-1 {
			*r.out = append(*r.out, r.sum...)
		}
	}
}

func (r *openingRecorder) Send(to int, data []byte) error {
	r.tap(data)
	return r.Conn.Send(to, data)
}

func (r *openingRecorder) Recv(from int) ([]byte, error) {
	msg, err := r.Conn.Recv(from)
	if err == nil {
		r.tap(msg)
	}
	return msg, err
}

// TestOpeningsNeverRepeat: correlated randomness is used once. Party 0
// records the round-1 openings C = D + R of lone and batched instances with
// identical inputs on an engine and two of its forks, for two engine seeds;
// a repeated C would hand it the difference of two joint sums, and with a
// fresh 48-bit mask per instance a chance repeat among these 972 openings
// has probability ≈ 2^-29. It fails if one engine reuses a block,
// if forks share a dealer stream, or if a dealer restarts its stream.
func TestOpeningsNeverRepeat(t *testing.T) {
	d := []int64{123456, -99999, -30000}
	seen := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		var got []uint64
		root, err := NewEngine(Params{Parties: len(d), Mode: ModeProtocol, Seed: seed,
			Wrap: func(p int, c transport.Conn) transport.Conn {
				if p != 0 {
					return c
				}
				return &openingRecorder{Conn: c, out: &got}
			}})
		if err != nil {
			t.Fatal(err)
		}
		engines := []*Engine{root, root.Fork(), root.Fork()}
		for ei, e := range engines {
			for _, k := range []int{1, 1, 1, 1, 1, 1, 1, 1, 5, 5, 70, 70, 1, 1, 1, 1} {
				got = got[:0]
				if _, err := e.CompareBatch(repeatInstance(d, k)); err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("recorded %d openings of a %d-batch", len(got), k)
				}
				for i, c := range got {
					where := fmt.Sprintf("seed %d, engine %d, %d-batch lane %d", seed, ei, k, i)
					if prev, dup := seen[c]; dup {
						t.Fatalf("opening %#x repeats: %s and %s", c, prev, where)
					}
					seen[c] = where
				}
			}
			e.Close()
		}
	}
}
