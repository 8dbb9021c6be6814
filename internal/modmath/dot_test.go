package modmath

import (
	"math/rand"
	"testing"
)

// dotPairReference is the per-term reduced inner product the lazy kernel
// replaces: one Barrett multiply and one modular add per term.
func dotPairReference(m Modulus, idx []uint32, x, w0, w1 [][]uint64, n int) (d0, d1 []uint64) {
	d0, d1 = make([]uint64, n), make([]uint64, n)
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = int(idx[i])
		}
		for k := range x {
			d0[i] = m.Add(d0[i], m.Mul(x[k][j], w0[k][i]))
			d1[i] = m.Add(d1[i], m.Mul(x[k][j], w1[k][i]))
		}
	}
	return d0, d1
}

// TestDotPairGatherVecMatchesPerTermReduction runs the lazy kernel at a
// 62-bit prime, where Reduce128's hi < q contract admits four products
// per reduction, with up to seventeen terms so the reduce-before-overflow
// path runs. Rows filled with q−1 hit the accumulator's worst case; at
// seventeen such terms an unreduced sum would overflow 128 bits.
func TestDotPairGatherVecMatchesPerTermReduction(t *testing.T) {
	ps, err := GeneratePrimes(MaxModulusBits, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for _, q := range append([]uint64{ps[0]}, testModuli...) {
		m := MustModulus(q)
		if q == ps[0] && m.lazyTerms() != 4 {
			t.Fatalf("62-bit q=%d: lazyTerms = %d, want 4", q, m.lazyTerms())
		}
		rng := rand.New(rand.NewSource(int64(q)))
		perm := rng.Perm(n)
		idx := make([]uint32, n)
		for i, p := range perm {
			idx[i] = uint32(p)
		}
		for _, terms := range []int{0, 1, 3, 4, 5, 8, 9, 17} {
			for _, worst := range []bool{false, true} {
				rows := func() [][]uint64 {
					out := make([][]uint64, terms)
					for k := range out {
						out[k] = make([]uint64, n)
						for i := range out[k] {
							out[k][i] = q - 1
							if !worst {
								out[k][i] = rng.Uint64() % q
							}
						}
					}
					return out
				}
				x, w0, w1 := rows(), rows(), rows()
				for _, ix := range [][]uint32{nil, idx} {
					got0, got1 := make([]uint64, n), make([]uint64, n)
					m.DotPairGatherVec(got0, got1, ix, x, w0, w1)
					want0, want1 := dotPairReference(m, ix, x, w0, w1, n)
					for i := 0; i < n; i++ {
						if got0[i] != want0[i] || got1[i] != want1[i] {
							t.Fatalf("q=%d terms=%d worst=%v gather=%v slot %d: got (%d,%d) want (%d,%d)",
								q, terms, worst, ix != nil, i, got0[i], got1[i], want0[i], want1[i])
						}
					}
				}
			}
		}
	}
}

func TestLazyTermsBound(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		k := uint64(m.lazyTerms())
		if k < 4 {
			t.Fatalf("q=%d: lazyTerms %d below 4", q, k)
		}
		// k·q ≤ 2^64 − 1 is what keeps k products of reduced operands
		// below q·2^64 (Reduce128's hi < q).
		if k <= 1<<30 && k > ^uint64(0)/q {
			t.Fatalf("q=%d: lazyTerms %d exceeds ⌊(2^64−1)/q⌋", q, k)
		}
	}
}
