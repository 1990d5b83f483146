package mpc

import "sync"

// Word-lane bit-sharing: the comparison protocol keeps one bit of every
// instance in the same machine-word lane, so a 64-lane XOR, AND or Beaver
// masking step costs one uint64 operation instead of 64 byte operations. The
// dealer deals its randomness in the same lanes (TupleBlock), one block per
// word of a batch.
//
// Lane layout: instance i of a k-batch lives in bit i%64 of word i/64. A
// "vector" is one logical bit per instance — []uint64 of wordsFor(k) words.
// On the wire a round's vectors are concatenated into one dense bit-stream,
// LSB-first within bytes: vector j occupies stream bits j·k … j·k+k−1 and
// only the stream's last byte is padded (with zeros). See putLanes/getLanes.

// wordsFor returns the number of 64-bit words holding k lanes.
func wordsFor(k int) int { return (k + 63) / 64 }

// streamBytes returns the wire size of a bit-stream of the given length.
func streamBytes(bits int) int { return (bits + 7) / 8 }

// putLanes writes the low k lanes of src into the bit-stream dst at bit
// offset pos. The covered bits of dst must be zero (frames come zeroed from
// getFrame); lanes ≥ k of src are ignored, so a stream's padding stays zero.
func putLanes(dst []byte, pos int, src []uint64, k int) {
	for w := 0; k > 0; w, pos, k = w+1, pos+64, k-64 {
		v, nbits := src[w], min(k, 64)
		if nbits < 64 {
			v &= 1<<uint(nbits) - 1
		}
		bi, sh := pos>>3, uint(pos&7)
		dst[bi] |= byte(v << sh)
		v >>= 8 - sh
		for rem := nbits - 8 + int(sh); rem > 0; rem -= 8 {
			bi++
			dst[bi] |= byte(v)
			v >>= 8
		}
	}
}

// getLanes reads the k stream bits of src starting at bit offset pos into
// the low k lanes of dst, zeroing lanes ≥ k of the words it fills.
func getLanes(dst []uint64, src []byte, pos, k int) {
	for w := 0; k > 0; w, pos, k = w+1, pos+64, k-64 {
		nbits := min(k, 64)
		bi, sh := pos>>3, uint(pos&7)
		v := uint64(src[bi]) >> sh
		for got := 8 - int(sh); got < nbits; got += 8 {
			bi++
			v |= uint64(src[bi]) << uint(got)
		}
		if nbits < 64 {
			v &= 1<<uint(nbits) - 1
		}
		dst[w] = v
	}
}

// framePool recycles wire-frame buffers across protocol rounds: the circuit
// allocates one frame per level per party, and without pooling those
// short-lived buffers dominated the allocation profile of index builds
// (fedbench -profile).
var framePool = sync.Pool{New: func() any { return []byte(nil) }}

// getFrame returns a zeroed frame of length n from the pool.
func getFrame(n int) []byte {
	buf := framePool.Get().([]byte)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// putFrame returns a frame to the pool. Callers must not retain the slice.
// Frames handed to transport.Conn.Send are safe to recycle immediately: Send
// copies (Mem) or fully writes (TCP) before returning.
func putFrame(buf []byte) { framePool.Put(buf[:0]) } //nolint:staticcheck // slice header boxing is fine here

// wordPool recycles []uint64 scratch slabs of the circuit.
var wordPool = sync.Pool{New: func() any { return []uint64(nil) }}

// getWords returns a zeroed word slab of length n from the pool.
func getWords(n int) []uint64 {
	buf := wordPool.Get().([]uint64)
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// putWords returns a word slab to the pool.
func putWords(buf []uint64) { wordPool.Put(buf[:0]) } //nolint:staticcheck
