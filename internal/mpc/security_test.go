package mpc

import (
	"bytes"
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
		identical := 0
		for i := range sent1 {
			if bytes.Equal(sent1[i], sent2[i]) {
				identical++
			}
		}
		// Only the shortest frames (the ⌈k/8⌉-byte result shares and, at
		// k = 1, the 4-bit last circuit level) may coincide by chance; every
		// longer masked frame must differ.
		if identical > len(diffs[0]) {
			t.Fatalf("k=%d: %d of %d frames identical across independently masked runs", k, identical, len(sent1))
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
		// Round 1 frames are the first n-1 sends, 8k bytes each.
		for f := 0; f < 2; f++ {
			if len(sent1[f]) != 8*k {
				t.Fatalf("k=%d: round-1 frame is %d bytes, want %d", k, len(sent1[f]), 8*k)
			}
			for i := 0; i < k; i++ {
				v1 := getU64(sent1[f][8*i:])
				v2 := getU64(sent2[f][8*i:])
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
		lanes[p] = meshes[p].OpenLane()
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
	results := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = RunCompareParty(lanes[p], diffs[p], &blocks[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	for p := 0; p < n; p++ {
		if !results[p] {
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
				got, err := RunCompareParty(lanes[p], inputs[r][p], &batches[r][p])
				if err != nil {
					errs[p] = err
					return
				}
				if got != wants[r] {
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
