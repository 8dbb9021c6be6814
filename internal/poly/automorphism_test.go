package poly

import (
	"math/rand"
	"testing"
)

// autoNTTRoundTrip is the reference NTT-domain automorphism: leave the
// NTT domain, permute coefficients, transform back.
func autoNTTRoundTrip(r *Ring, a *Poly, g uint64) *Poly {
	c := a.Copy()
	r.INTT(c)
	out := r.NewPoly(a.Limbs())
	r.Automorphism(out, c, g)
	r.NTT(out)
	return out
}

// TestAutomorphismNTTMatchesRoundTrip pins the slot permutation to the
// coefficient-domain automorphism bit-for-bit, for rotation exponents 5^r
// and the conjugation exponent 2N−1, across ring degrees and limbs.
func TestAutomorphismNTTMatchesRoundTrip(t *testing.T) {
	for _, n := range []int{16, 1024, 8192} {
		r := testRing(t, n, 3)
		rng := rand.New(rand.NewSource(int64(n)))
		a := r.UniformPoly(3, rng)
		r.NTT(a)
		gs := []uint64{1, r.GaloisElementConjugate()}
		for _, rot := range []int{1, 2, 3, 7, -1, n/4 - 1} {
			gs = append(gs, r.GaloisElement(rot))
		}
		for _, g := range gs {
			got := r.NewPoly(3)
			r.AutomorphismNTT(got, a, g)
			if want := autoNTTRoundTrip(r, a, g); !got.Equal(want) {
				t.Fatalf("N=%d g=%d: NTT-domain permutation differs from INTT→Automorphism→NTT", n, g)
			}
		}
	}
}

func TestAutomorphismNTTIndexIsCachedPermutation(t *testing.T) {
	r := testRing(t, 64, 1)
	g := r.GaloisElement(3)
	idx := r.AutomorphismNTTIndex(g)
	if again := r.AutomorphismNTTIndex(g + 2*uint64(r.N)); &again[0] != &idx[0] {
		t.Fatal("index map for g and g+2N not shared")
	}
	seen := make([]bool, r.N)
	for _, j := range idx {
		if seen[j] {
			t.Fatalf("slot %d used twice: not a permutation", j)
		}
		seen[j] = true
	}
}

func TestAutomorphismNTTRejectsCoefficientForm(t *testing.T) {
	r := testRing(t, 16, 1)
	a, b := r.NewPoly(1), r.NewPoly(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for coefficient-form input")
		}
	}()
	r.AutomorphismNTT(b, a, 5)
}
