package mpc

import (
	"math/rand/v2"
	"testing"
)

// TestBatchWireCostMatchesMeasured pins the analytic cost model to reality:
// for lane counts on both sides of every byte and word boundary and several
// party counts, the single batchWireCost formula must equal the byte and
// message totals transport.Mem actually accounted for a kernel run. The
// engine's accounting in both modes — and the "a batch never costs more
// than its compares run singly" guarantee built on it — is exactly as
// trustworthy as this equality.
func TestBatchWireCostMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for _, n := range []int{2, 3, 5} {
		for _, k := range []int{1, 2, 3, 5, 7, 8, 9, 16, 33, 63, 64, 65, 100, 129, 200} {
			diffs, _ := randomBatch(rng, n, k)
			_, _, st := runKernel(t, n, uint64(n*1000+k), diffs)
			wantBytes, wantMsgs := batchWireCost(n, k)
			if st.Bytes != wantBytes || st.Messages != wantMsgs {
				t.Fatalf("n=%d k=%d: measured %d B / %d msgs, model %d B / %d msgs",
					n, k, st.Bytes, st.Messages, wantBytes, wantMsgs)
			}
		}
	}
	// The k = 1 figure every cost table quotes: 41 B per ordered party pair.
	if b, m := batchWireCost(3, 1); b != 246 || m != 48 {
		t.Fatalf("batchWireCost(3,1) = %d B / %d msgs, want 246 / 48", b, m)
	}
}

// TestBatchNeverCostsMoreThanSequential: with the dense frame layout a
// k-batch pays RoundsPerCompare rounds once (strictly fewer messages than k
// single comparisons for k > 1) and never more bytes than the same
// comparisons run singly — at every k, ragged or not.
func TestBatchNeverCostsMoreThanSequential(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		oneBytes, oneMsgs := batchWireCost(n, 1)
		for k := 2; k <= 256; k++ {
			bytes, msgs := batchWireCost(n, k)
			if msgs >= oneMsgs*int64(k) {
				t.Fatalf("n=%d k=%d: batch %d msgs, sequential %d", n, k, msgs, oneMsgs*int64(k))
			}
			if bytes > oneBytes*int64(k) {
				t.Fatalf("n=%d k=%d: batch %d B > %d sequential B", n, k, bytes, oneBytes*int64(k))
			}
		}
	}
}

// TestLaneCodecRoundTrip: putLanes/getLanes are lossless on the live lanes
// at byte-aligned and unaligned stream offsets, leave neighbouring stream
// bits alone, ignore source lanes ≥ k and zero destination lanes ≥ k.
func TestLaneCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	for _, k := range []int{1, 7, 8, 9, 63, 64, 65, 100, 128, 200} {
		for _, pos := range []int{0, 1, 7, 8, 13, 64, 3 * k} {
			W := wordsFor(k)
			src := make([]uint64, W)
			back := make([]uint64, W)
			for w := range src {
				src[w] = rng.Uint64() // lanes ≥ k deliberately dirty
				back[w] = rng.Uint64()
			}
			buf := make([]byte, streamBytes(pos+k)+1)
			putLanes(buf, pos, src, k)
			for bit := 0; bit < 8*len(buf); bit++ {
				got := buf[bit>>3] >> (bit & 7) & 1
				var want byte
				if i := bit - pos; i >= 0 && i < k {
					want = byte(src[i>>6] >> (uint(i) & 63) & 1)
				}
				if got != want {
					t.Fatalf("k=%d pos=%d: stream bit %d = %d, want %d", k, pos, bit, got, want)
				}
			}
			getLanes(back, buf, pos, k)
			for i := 0; i < 64*W; i++ {
				want := src[i>>6] >> (uint(i) & 63) & 1
				if i >= k {
					want = 0
				}
				if back[i>>6]>>(uint(i)&63)&1 != want {
					t.Fatalf("k=%d pos=%d: lane %d did not round-trip", k, pos, i)
				}
			}
		}
	}
}

// FuzzPackedVecCodec fuzzes the dense bit-stream codec: any byte string read
// as consecutive k-lane vectors starting at any bit offset must survive
// getLanes→putLanes with its live bits intact, and every bit of the
// re-encoded stream outside the vectors (lead-in, final padding) must be
// zero.
func FuzzPackedVecCodec(f *testing.F) {
	f.Add([]byte{0xff}, uint16(1))
	f.Add([]byte{0xab, 0xcd}, uint16(13))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(65))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(5<<8|7))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		k := 1 + int(kRaw%256)
		lead := int(kRaw>>8) % 8 // first vector's bit offset: every alignment
		const vecs = 3
		end := lead + vecs*k
		in := make([]byte, streamBytes(end))
		copy(in, data)
		out := make([]byte, len(in))
		words := make([]uint64, wordsFor(k))
		for j := 0; j < vecs; j++ {
			getLanes(words, in, lead+j*k, k)
			if k&63 != 0 && words[len(words)-1]>>(uint(k)&63) != 0 {
				t.Fatalf("k=%d lead=%d vector %d: lanes ≥ k nonzero after decode", k, lead, j)
			}
			putLanes(out, lead+j*k, words, k)
		}
		for bit := 0; bit < 8*len(in); bit++ {
			want := in[bit>>3] >> (bit & 7) & 1
			if bit < lead || bit >= end {
				want = 0
			}
			if got := out[bit>>3] >> (bit & 7) & 1; got != want {
				t.Fatalf("k=%d lead=%d: stream bit %d = %d, want %d", k, lead, bit, got, want)
			}
		}
	})
}
