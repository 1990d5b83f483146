package mpc

import (
	"math/rand/v2"
	"testing"
)

// xorSplit deals v as n XOR shares.
func xorSplit(rng *rand.Rand, v uint64, n int) []uint64 {
	shares := make([]uint64, n)
	shares[0] = v
	for p := 1; p < n; p++ {
		shares[p] = rng.Uint64()
		shares[0] ^= shares[p]
	}
	return shares
}

// groupProducts deals the group's subset products as n XOR shares each
// ([party][product]), reading secret bit f of productFactors from secret(f).
func groupProducts(rng *rand.Rand, grp *carryGroup, n int, secret func(f int) uint64) [][]uint64 {
	end := ProductsPerCompare // the next group's first product
	for _, level := range circuit {
		for _, g := range level {
			if g.prod > grp.prod {
				end = min(end, g.prod)
			}
		}
	}
	prods := make([][]uint64, n)
	for _, factors := range productFactors[grp.prod:end] {
		v := ^uint64(0)
		for _, f := range factors {
			v &= secret(f)
		}
		for p, s := range xorSplit(rng, v, n) {
			prods[p] = append(prods[p], s)
		}
	}
	return prods
}

// evalShares runs grp.eval on one party's shares: v of the slots' secret
// bits, prods of the group's products and one of the constant 1.
func evalShares(grp *carryGroup, alpha, beta, v *[2 * maxFanIn]uint64, prods []uint64, one uint64) (g, p uint64) {
	x := &evalScratch{alpha: *alpha, beta: *beta}
	x.sh[0] = one
	copy(x.sh[1:], v[:])
	copy(x.sh[prodShare:], prods)
	return grp.eval(x)
}

// TestCarryGroupsExhaustive holds the kernel's carry groups to plaintext on
// every input. For every (c, r) of a six-leaf group (4,096 cases: the lowest
// group, without P, and the next, with P) and of the five-leaf top group
// (1,024), and for every (g, p) input of level 2's eight-input group (2^15
// wire patterns; it reads no y_0) under random masks, n parties evaluate
// their shares with carryGroup.eval from random sharings of the secret bits,
// the masks and the dealt products, and the shares must open to the group's
// plaintext generate and propagate. A level-1 group's are those of c − r
// over its bits: it generates a borrow iff c < r and passes one through iff
// c = r. The opened group's are the fold G ← x_i ⊕ y_i·G over its inputs,
// lowest pair first (for the mutually exclusive x_i, y_i of the borrow
// circuit the ⊕ is an OR); as the lowest group of its level it computes no
// P.
func TestCarryGroupsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 37))
	ones := ^uint64(0)
	for _, n := range []int{2, 3, 5} {
		one := func(p int) uint64 {
			if p == 0 {
				return ones
			}
			return 0
		}
		first := circuit[0]
		for _, grp := range []*carryGroup{&first[0], &first[1], &first[len(first)-1]} {
			size := grp.size
			lanes := 1 << (2 * size) // lane = c | r<<size
			for w := 0; w < wordsFor(lanes); w++ {
				var c, r [maxFanIn]uint64 // bit i of every lane's c and r
				for l := 0; l < 64 && 64*w+l < lanes; l++ {
					x := 64*w + l
					for i := 0; i < size; i++ {
						c[i] |= uint64(x>>i&1) << l
						r[i] |= uint64(x>>(size+i)&1) << l
					}
				}
				rs := make([][]uint64, size)
				for i := range rs {
					rs[i] = xorSplit(rng, r[i], n)
				}
				prods := groupProducts(rng, grp, n, func(f int) uint64 { return r[f-grp.in] })
				var G, P uint64
				for p := 0; p < n; p++ {
					var alpha, beta, v [2 * maxFanIn]uint64
					for i := 0; i < size; i++ {
						alpha[i], beta[i], v[i] = 0, ^c[i], rs[i][p]
						alpha[maxFanIn+i], beta[maxFanIn+i], v[maxFanIn+i] = ^c[i], ones, rs[i][p]
					}
					g, pp := evalShares(grp, &alpha, &beta, &v, prods[p], one(p))
					G, P = G^g, P^pp
				}
				for l := 0; l < 64 && 64*w+l < lanes; l++ {
					x := 64*w + l
					cv, rv := x&(1<<size-1), x>>size
					wantG, wantP := cv < rv, cv == rv && grp.in > 0
					if G>>l&1 == 1 != wantG || P>>l&1 == 1 != wantP {
						t.Fatalf("n=%d leaf group at %d, c=%b r=%b: G %d P %d, want %v %v",
							n, grp.in, cv, rv, G>>l&1, P>>l&1, wantG, wantP)
					}
				}
			}
		}

		grp := &circuit[1][0]
		if grp.size != maxFanIn || grp.in != 0 {
			t.Fatalf("level 2 is a group of %d inputs at %d, want %d at 0", grp.size, grp.in, maxFanIn)
		}
		// Lane bit s < maxFanIn is wire slot s (x_s), bit maxFanIn−1+i is
		// slot maxFanIn+i (y_i) for i ≥ 1; y_0 stays 0.
		slotOf := func(bit int) int {
			if bit < maxFanIn {
				return bit
			}
			return bit + 1
		}
		const lanes = 1 << (2*maxFanIn - 1)
		for w := 0; w < lanes/64; w++ {
			var wires [2 * maxFanIn]uint64
			for l := 0; l < 64; l++ {
				for bit := 0; bit < 2*maxFanIn-1; bit++ {
					wires[slotOf(bit)] |= uint64((64*w+l)>>bit&1) << l
				}
			}
			shares := make([][]uint64, len(wires))
			for s, x := range wires {
				shares[s] = xorSplit(rng, x, n)
			}
			masks := make([]uint64, len(grp.open))
			maskShares := make([][]uint64, len(grp.open))
			for o := range masks {
				masks[o] = rng.Uint64()
				maskShares[o] = xorSplit(rng, masks[o], n)
			}
			prods := groupProducts(rng, grp, n, func(f int) uint64 { return masks[f-K-grp.mask] })
			var G, P uint64
			for p := 0; p < n; p++ {
				var alpha, beta, v [2 * maxFanIn]uint64
				for s := range wires {
					beta[s], v[s] = ones, shares[s][p]
				}
				for o, s := range grp.open {
					alpha[s], v[s] = wires[s]^masks[o], maskShares[o][p]
				}
				g, pp := evalShares(grp, &alpha, &beta, &v, prods[p], one(p))
				G, P = G^g, P^pp
			}
			for l := 0; l < 64; l++ {
				var wantG uint64
				for i := 0; i < maxFanIn; i++ {
					wantG = wires[i]>>l&1 ^ wires[maxFanIn+i]>>l&1&wantG
				}
				if G>>l&1 != wantG || P>>l&1 != 0 {
					t.Fatalf("n=%d opened group, lane pattern %015b: G %d P %d, want %d 0",
						n, 64*w+l, G>>l&1, P>>l&1, wantG)
				}
			}
		}
	}
}
