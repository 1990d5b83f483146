package mpc

import (
	"crypto/subtle"
	"fmt"

	"repro/internal/transport"
)

// The comparison protocol runs k independent comparisons inside ONE
// RoundsPerCompare-round instance: masked openings, circuit-level AND
// openings and result bits of all k instances travel in the same frames, so
// communication rounds — the latency-dominated cost on real networks — are
// paid once per batch. A single comparison is simply k = 1: there is no
// scalar variant of the protocol.
//
// Frame layout (every party broadcasts one frame per round):
//
//	round 1      8k bytes: instance i's masked opening d_i + r_i as a
//	             little-endian uint64 at offset 8i
//	level ℓ      ⌈gates_ℓ·2·k/8⌉ bytes: one dense bit-stream, gate-major,
//	             LSB-first — gate t's masked e-vector occupies stream bits
//	             2t·k … 2t·k+k−1, its f-vector the next k bits; instance i
//	             is bit i of a vector; only the last byte is zero-padded
//	last round   ⌈k/8⌉ bytes: the k result-bit shares, same bit order
//
// batchWireCost (engine.go) restates these sizes as the analytic cost.
//
// FedRoad batches the TM-tree's tournament build, the SPSP frontier's
// μ-updates and the CH builder's witness searches and customization, whose
// level-wise comparisons are independent by construction (§VI).

// RunCompareBatchParty executes one party's role for k comparisons at once
// over an arbitrary transport. diffs[i] is the party's private input d_p of
// instance i, whose correlated randomness is lane i%64 of blocks[i/64] — this
// party's blocks of ⌈k/64⌉ deals, read in place; the protocol decides, per
// instance, whether D = Σ_p d_p (as a two's-complement signed value) is
// negative. Every party learns the same k bits and nothing else.
//
// This is the only function that performs comparison rounds: each circuit
// wire holds one bit of every instance in machine-word lanes (see pack.go),
// so the level-synchronous Beaver evaluation is 64-way SIMD in plain uint64
// arithmetic.
func RunCompareBatchParty(conn transport.Conn, diffs []int64, blocks []*TupleBlock) ([]bool, error) {
	me, n := conn.Party(), conn.N()
	k := len(diffs)
	W := wordsFor(k)
	if len(blocks) != W {
		return nil, fmt.Errorf("mpc: %d tuple blocks for %d comparisons, need %d", len(blocks), k, W)
	}
	if k == 0 {
		return nil, nil
	}

	// Round 1 — fused masked openings C_i = D_i + R_i, all in one frame. The
	// inputs d_p already form an additive sharing of D, so instead of a
	// separate input-sharing round each party broadcasts m_p = d_p + r_p
	// directly, where r_p is its additive share of the dealer's uniform mask
	// R. Any n−1 of the m_p are jointly uniform (each is masked by an r_p the
	// observer does not hold), and their sum opens only C = D + R.
	frame := getFrame(8 * k)
	for i, d := range diffs {
		putU64(frame[8*i:], uint64(d)+blocks[i>>6].R[i&63])
	}
	opened, err := broadcast(conn, frame)
	if err != nil {
		putFrame(frame)
		return nil, err
	}
	cs := make([]uint64, k)
	for q := 0; q < n; q++ {
		for i := 0; i < k; i++ {
			cs[i] += getU64(opened[q][8*i:])
		}
	}
	putFrame(frame)

	// Transpose the openings into word lanes: vector b of g starts as the
	// (public) bit b of every instance's C (word b*W+w covers instances
	// 64w..64w+63, as blocks[w] does).
	g := getWords(K * W)
	p := getWords(K * W)
	defer putWords(g)
	defer putWords(p)
	for i, c := range cs {
		wi, bit := i>>6, uint(i&63)
		for b := 0; b < K; b++ {
			g[b*W+wi] |= (c >> uint(b) & 1) << bit
		}
	}

	// Borrow circuit over bits 0..K-2 of C − R. Leaf shares, word-parallel
	// over instances, computed from c_b (in g) and this party's share r_b of
	// bit b of every instance's R:
	//
	//	g_b = ¬c_b ∧ r_b          (borrow generated at bit b)
	//	p_b = ¬(c_b ⊕ r_b)        (borrow propagated through bit b)
	//
	// Constants fold into party 0's share. Vector K-1 of g and p keeps the
	// top bits of C and R for the final round: the reduction below only
	// touches vectors below NumLeaves. Lanes ≥ k hold unused randomness and
	// garbage derived from public values; putLanes drops them.
	for w, blk := range blocks {
		for b := 0; b < NumLeaves; b++ {
			i := b*W + w
			cw, rw := g[i], blk.RBits[b]
			g[i], p[i] = rw&^cw, rw
			if me == 0 {
				p[i] = rw ^ ^cw
			}
		}
		p[(K-1)*W+w] = blk.RBits[K-1]
	}

	// Log-depth tree reduction of (g, p) segments, ascending significance:
	// (G, P) = (g_hi ⊕ (p_hi ∧ g_lo), p_hi ∧ p_lo). Each level opens all its
	// gates' masked vectors in one frame; gate t of the circuit consumes
	// triple t of every instance.
	ew := getWords(W)
	fw := getWords(W)
	zw := getWords(2 * W) // z of the pair's two gates
	defer putWords(ew)
	defer putWords(fw)
	defer putWords(zw)
	triplesUsed := 0
	leaves := NumLeaves
	for leaves > 1 {
		half := leaves / 2
		gates := 2 * half
		frame := getFrame(streamBytes(gates * 2 * k))
		for pr := 0; pr < half; pr++ {
			lo, hi := 2*pr, 2*pr+1
			for sub := 0; sub < 2; sub++ {
				// Gate 2pr: (p_hi ∧ g_lo); gate 2pr+1: (p_hi ∧ p_lo).
				gate := 2*pr + sub
				y := g
				if sub == 1 {
					y = p
				}
				t := triplesUsed + gate
				for w, blk := range blocks {
					ew[w] = p[hi*W+w] ^ blk.A[t]
					fw[w] = y[lo*W+w] ^ blk.B[t]
				}
				putLanes(frame, 2*gate*k, ew, k)
				putLanes(frame, (2*gate+1)*k, fw, k)
			}
		}
		if err := openXOR(conn, frame); err != nil {
			putFrame(frame)
			return nil, err
		}
		for pr := 0; pr < half; pr++ {
			for sub := 0; sub < 2; sub++ {
				gate := 2*pr + sub
				getLanes(ew, frame, 2*gate*k, k)
				getLanes(fw, frame, (2*gate+1)*k, k)
				t := triplesUsed + gate
				for w, blk := range blocks {
					z := blk.C[t] ^ (fw[w] & blk.A[t]) ^ (ew[w] & blk.B[t])
					if me == 0 {
						z ^= ew[w] & fw[w]
					}
					zw[sub*W+w] = z
				}
			}
			// Combine in place: pair pr writes index pr, reads 2pr/2pr+1 —
			// always at or beyond the write cursor.
			hi := 2*pr + 1
			for w := 0; w < W; w++ {
				g[pr*W+w] = g[hi*W+w] ^ zw[w]
				p[pr*W+w] = zw[W+w]
			}
		}
		if leaves%2 == 1 { // odd element is most significant: stays last
			copy(g[half*W:(half+1)*W], g[(leaves-1)*W:leaves*W])
			copy(p[half*W:(half+1)*W], p[(leaves-1)*W:leaves*W])
		}
		putFrame(frame)
		triplesUsed += gates
		leaves = half + leaves%2
	}

	// Final round — open all k result bits in one vector. Sign bit of D:
	// d_{K-1} = c_{K-1} ⊕ r_{K-1} ⊕ G, where the borrow into the top bit is
	// the tree's total generate G.
	res := getWords(W)
	defer putWords(res)
	for w := 0; w < W; w++ {
		res[w] = p[(K-1)*W+w] ^ g[w]
		if me == 0 {
			res[w] ^= g[(K-1)*W+w]
		}
	}
	resFrame := getFrame(streamBytes(k))
	putLanes(resFrame, 0, res, k)
	if err := openXOR(conn, resFrame); err != nil {
		putFrame(resFrame)
		return nil, err
	}
	getLanes(res, resFrame, 0, k)
	putFrame(resFrame)
	out := make([]bool, k)
	for i := 0; i < k; i++ {
		out[i] = res[i>>6]>>(uint(i)&63)&1 == 1
	}
	return out, nil
}

// openXOR opens XOR-shared bits: it broadcasts this party's frame of shares
// and folds every peer's frame into it, leaving the opened values in frame.
func openXOR(conn transport.Conn, frame []byte) error {
	opened, err := broadcast(conn, frame)
	if err != nil {
		return err
	}
	for q, peer := range opened {
		if q != conn.Party() {
			subtle.XORBytes(frame, frame, peer)
		}
	}
	return nil
}

// broadcast sends data to every peer and collects every peer's frame for the
// same round. The returned slice is indexed by party; the caller's own frame
// sits at its own index.
func broadcast(conn transport.Conn, data []byte) ([][]byte, error) {
	me, n := conn.Party(), conn.N()
	out := make([][]byte, n)
	out[me] = data
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		if err := conn.Send(q, data); err != nil {
			return nil, fmt.Errorf("mpc: broadcast to %d: %w", q, err)
		}
	}
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		msg, err := conn.Recv(q)
		if err != nil {
			return nil, fmt.Errorf("mpc: broadcast from %d: %w", q, err)
		}
		if len(msg) != len(data) {
			return nil, fmt.Errorf("mpc: broadcast frame size mismatch from %d: %d != %d", q, len(msg), len(data))
		}
		out[q] = msg
	}
	return out, nil
}
