// Package poly provides RNS polynomials in Z_Q[X]/(X^N+1): the (ℓ+1)×N
// limb matrices the paper's dataflow operates on. A Ring owns the moduli
// and per-modulus NTT tables; Poly values carry their representation
// (coefficient vs NTT) and support the element-wise, NTT, and automorphism
// primitives that make up every CKKS operator.
package poly

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"crophe/internal/modmath"
	"crophe/internal/ntt"
	"crophe/internal/parallel"
	"crophe/internal/rns"
)

// Ring bundles the ring degree with an RNS basis and the NTT tables for
// each limb modulus. Immutable after construction; safe for concurrent use.
type Ring struct {
	N      int
	Basis  *rns.Basis
	Tables []*ntt.Table

	// galois and galoisNTT cache the coefficient- and NTT-domain
	// automorphism index maps keyed by the exponent g, built lazily under
	// galoisMu.
	galoisMu  sync.Mutex
	galois    map[uint64][]autoEntry
	galoisNTT map[uint64][]uint32
}

// autoEntry is one output coefficient of a coefficient-domain
// automorphism: its source index and whether it wraps past X^N (and so
// flips sign).
type autoEntry struct {
	src    int
	negate bool
}

// NewRing creates a ring of degree n (power of two) over the given primes,
// each of which must support the negacyclic NTT (p ≡ 1 mod 2n).
func NewRing(n int, primes []uint64) (*Ring, error) {
	basis, err := rns.NewBasis(primes)
	if err != nil {
		return nil, err
	}
	r := &Ring{N: n, Basis: basis,
		galois: make(map[uint64][]autoEntry), galoisNTT: make(map[uint64][]uint32)}
	r.Tables = make([]*ntt.Table, basis.K())
	// Per-limb tables are independent; build them across the pool.
	errs := make([]error, basis.K())
	parallel.For(basis.K(), func(i int) {
		t, err := ntt.NewTable(basis.Mods[i], n)
		if err != nil {
			errs[i] = fmt.Errorf("poly: limb %d: %w", i, err)
			return
		}
		r.Tables[i] = t
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// K returns the number of limb moduli in the ring.
func (r *Ring) K() int { return r.Basis.K() }

// Mod returns the modulus of limb i.
func (r *Ring) Mod(i int) modmath.Modulus { return r.Basis.Mods[i] }

// Poly is an RNS polynomial: Coeffs[i][j] is the j-th coefficient (or NTT
// slot) of the i-th limb. Level()+1 limbs are populated.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// NewPoly allocates a zero polynomial with limbs limbs of degree r.N.
func (r *Ring) NewPoly(limbs int) *Poly {
	if limbs < 1 || limbs > r.K() {
		panic(fmt.Sprintf("poly: limb count %d out of range [1,%d]", limbs, r.K()))
	}
	backing := make([]uint64, limbs*r.N)
	c := make([][]uint64, limbs)
	for i := range c {
		c[i], backing = backing[:r.N:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: c}
}

// Limbs returns the number of populated limbs.
func (p *Poly) Limbs() int { return len(p.Coeffs) }

// Level returns Limbs()-1, the multiplicative level of the polynomial.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// Copy returns a deep copy.
func (p *Poly) Copy() *Poly {
	q := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		q.Coeffs[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return q
}

// DropLevel removes the top limbs so the polynomial has newLimbs limbs.
func (p *Poly) DropLevel(newLimbs int) {
	if newLimbs < 1 || newLimbs > len(p.Coeffs) {
		panic(fmt.Sprintf("poly: DropLevel to %d limbs out of range [1,%d]", newLimbs, len(p.Coeffs)))
	}
	p.Coeffs = p.Coeffs[:newLimbs]
}

func (r *Ring) checkPair(a, b *Poly) int {
	if a.Limbs() != b.Limbs() {
		panic(fmt.Sprintf("poly: limb mismatch %d vs %d", a.Limbs(), b.Limbs()))
	}
	if a.IsNTT != b.IsNTT {
		panic(fmt.Sprintf("poly: representation mismatch (a.IsNTT=%v, b.IsNTT=%v)", a.IsNTT, b.IsNTT))
	}
	return a.Limbs()
}

// Add sets dst = a + b limb-wise. dst may alias a or b.
func (r *Ring) Add(dst, a, b *Poly) {
	k := r.checkPair(a, b)
	ensureLike(dst, a)
	parallel.For(k, func(i int) {
		r.Mod(i).AddVec(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	dst.IsNTT = a.IsNTT
}

// Sub sets dst = a − b limb-wise.
func (r *Ring) Sub(dst, a, b *Poly) {
	k := r.checkPair(a, b)
	ensureLike(dst, a)
	parallel.For(k, func(i int) {
		r.Mod(i).SubVec(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	dst.IsNTT = a.IsNTT
}

// Neg sets dst = −a.
func (r *Ring) Neg(dst, a *Poly) {
	ensureLike(dst, a)
	parallel.For(a.Limbs(), func(i int) {
		r.Mod(i).NegVec(dst.Coeffs[i], a.Coeffs[i])
	})
	dst.IsNTT = a.IsNTT
}

// MulHadamard sets dst = a ⊙ b element-wise. Both operands must be in NTT
// form (pointwise products realise ring multiplication only there).
func (r *Ring) MulHadamard(dst, a, b *Poly) {
	k := r.checkPair(a, b)
	if !a.IsNTT {
		panic(fmt.Sprintf("poly: MulHadamard requires NTT form (operand has %d coefficient-form limbs)", a.Limbs()))
	}
	ensureLike(dst, a)
	parallel.For(k, func(i int) {
		r.Mod(i).MulVec(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	dst.IsNTT = true
}

// MulAddHadamard sets dst += a ⊙ b element-wise (NTT form).
func (r *Ring) MulAddHadamard(dst, a, b *Poly) {
	k := r.checkPair(a, b)
	if !a.IsNTT || !dst.IsNTT {
		panic(fmt.Sprintf("poly: MulAddHadamard requires NTT form (a.IsNTT=%v, dst.IsNTT=%v)", a.IsNTT, dst.IsNTT))
	}
	parallel.For(k, func(i int) {
		r.Mod(i).MulAddVec(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
}

// MulScalar sets dst = a · s for a plain integer scalar s (reduced per
// limb).
func (r *Ring) MulScalar(dst, a *Poly, s uint64) {
	ensureLike(dst, a)
	parallel.For(a.Limbs(), func(i int) {
		m := r.Mod(i)
		si := m.Reduce(s)
		m.MulShoupVec(dst.Coeffs[i], a.Coeffs[i], si, m.ShoupPrecomp(si))
	})
	dst.IsNTT = a.IsNTT
}

// MulScalarRNS multiplies limb i by the per-limb constant s[i]; used for
// rescaling constants like q_ℓ^{-1} mod q_i.
func (r *Ring) MulScalarRNS(dst, a *Poly, s []uint64) {
	if len(s) < a.Limbs() {
		panic(fmt.Sprintf("poly: MulScalarRNS constant vector has %d entries, need %d", len(s), a.Limbs()))
	}
	ensureLike(dst, a)
	parallel.For(a.Limbs(), func(i int) {
		m := r.Mod(i)
		si := m.Reduce(s[i])
		m.MulShoupVec(dst.Coeffs[i], a.Coeffs[i], si, m.ShoupPrecomp(si))
	})
	dst.IsNTT = a.IsNTT
}

// NTT converts p to NTT form in place (no-op if already there).
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		return
	}
	ntt.BatchForward(r.Tables[:p.Limbs()], p.Coeffs)
	p.IsNTT = true
}

// INTT converts p to coefficient form in place (no-op if already there).
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		return
	}
	ntt.BatchInverse(r.Tables[:p.Limbs()], p.Coeffs)
	p.IsNTT = false
}

// automorphismIndex returns (building if needed) the coefficient-domain
// permutation for the map X → X^g: source index and sign for each output
// coefficient. g must be odd (an element of (Z/2NZ)*).
func (r *Ring) automorphismIndex(g uint64) []autoEntry {
	g = r.galoisExponent(g)
	twoN := uint64(2 * r.N)
	r.galoisMu.Lock()
	defer r.galoisMu.Unlock()
	if e, ok := r.galois[g]; ok {
		return e
	}
	// Output coefficient at position (j·g mod 2N) receives a_j, with a
	// sign flip when the reduced index lands in [N, 2N).
	entries := make([]autoEntry, r.N)
	for j := 0; j < r.N; j++ {
		idx := (uint64(j) * g) % twoN
		if idx < uint64(r.N) {
			entries[idx] = autoEntry{src: j}
		} else {
			entries[idx-uint64(r.N)] = autoEntry{src: j, negate: true}
		}
	}
	r.galois[g] = entries
	return entries
}

// galoisExponent checks that g is odd (an element of (Z/2NZ)*) and
// reduces it mod 2N.
func (r *Ring) galoisExponent(g uint64) uint64 {
	if g%2 == 0 {
		panic(fmt.Sprintf("poly: automorphism exponent %d must be odd", g))
	}
	return g % uint64(2*r.N)
}

// AutomorphismNTTIndex returns (building if needed) the NTT-domain
// permutation of X → X^g: σ_g(a) in NTT form is out[i] = in[idx[i]].
// ntt.Table.Forward leaves a(ψ^(2·brv(i)+1)) in slot i, and σ_g(a)
// evaluated there is a(ψ^(g·(2·brv(i)+1))), another odd power of ψ, so the
// automorphism is a pure permutation of slots with no sign flips. The
// map depends only on N and g, so it serves every limb modulus.
func (r *Ring) AutomorphismNTTIndex(g uint64) []uint32 {
	g = r.galoisExponent(g)
	mask := uint64(2*r.N - 1)
	r.galoisMu.Lock()
	defer r.galoisMu.Unlock()
	if idx, ok := r.galoisNTT[g]; ok {
		return idx
	}
	logN := bits.TrailingZeros(uint(r.N))
	brv := func(x uint64) uint64 { return bits.Reverse64(x) >> (64 - logN) }
	idx := make([]uint32, r.N)
	for i := range idx {
		e := (2*brv(uint64(i)) + 1) * g & mask
		idx[i] = uint32(brv((e - 1) >> 1))
	}
	r.galoisNTT[g] = idx
	return idx
}

// AutomorphismNTT applies a(X) → a(X^g) to an NTT-form polynomial by
// permuting its slots, writing into dst (which must not alias a). It is
// bit-identical to INTT → Automorphism → NTT at no transform cost; the
// hardware realises the same permutation with its inter-lane shift
// networks.
func (r *Ring) AutomorphismNTT(dst, a *Poly, g uint64) {
	if !a.IsNTT {
		panic(fmt.Sprintf("poly: AutomorphismNTT (g=%d) requires NTT form, got coefficient form", g))
	}
	ensureLike(dst, a)
	idx := r.AutomorphismNTTIndex(g)
	parallel.For(a.Limbs(), func(i int) {
		da, dd := a.Coeffs[i], dst.Coeffs[i][:len(idx)]
		for out, src := range idx {
			dd[out] = da[src]
		}
	})
	dst.IsNTT = true
}

// Automorphism applies a(X) → a(X^g) in the coefficient domain, writing
// into dst (which must not alias a). NTT-form inputs take
// AutomorphismNTT instead.
func (r *Ring) Automorphism(dst, a *Poly, g uint64) {
	if a.IsNTT {
		panic(fmt.Sprintf("poly: Automorphism (g=%d) requires coefficient form, got NTT", g))
	}
	ensureLike(dst, a)
	entries := r.automorphismIndex(g)
	parallel.For(a.Limbs(), func(i int) {
		m := r.Mod(i)
		da, dd := a.Coeffs[i], dst.Coeffs[i]
		for out, e := range entries {
			v := da[e.src]
			if e.negate {
				v = m.Neg(v)
			}
			dd[out] = v
		}
	})
	dst.IsNTT = false
}

// GaloisElement returns 5^r mod 2N, the automorphism exponent that rotates
// CKKS slots by r positions (negative r rotates the other way).
func (r *Ring) GaloisElement(rot int) uint64 {
	twoN := uint64(2 * r.N)
	n2 := r.N / 2 // slot count; rotations are modulo N/2
	rot = ((rot % n2) + n2) % n2
	g := uint64(1)
	base := uint64(5)
	for i := 0; i < rot; i++ {
		g = g * base % twoN
	}
	return g
}

// GaloisElementConjugate returns 2N−1, the exponent realising complex
// conjugation of the slots.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N) - 1 }

// UniformPoly fills a fresh polynomial with uniform residues.
func (r *Ring) UniformPoly(limbs int, rng *rand.Rand) *Poly {
	p := r.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		q := r.Mod(i).Q
		c := p.Coeffs[i]
		for j := range c {
			c[j] = rng.Uint64() % q
		}
	}
	return p
}

// TernaryPoly samples a secret-key-style polynomial with coefficients in
// {-1, 0, 1} (uniform), identical across limbs via CRT lifting.
func (r *Ring) TernaryPoly(limbs int, rng *rand.Rand) *Poly {
	p := r.NewPoly(limbs)
	for j := 0; j < r.N; j++ {
		v := int64(rng.Intn(3) - 1)
		for i := 0; i < limbs; i++ {
			p.Coeffs[i][j] = modmath.FromCentered(v, r.Mod(i).Q)
		}
	}
	return p
}

// SparseTernaryPoly samples a ternary polynomial with exactly h non-zero
// coefficients (±1 with equal probability) — the sparse secrets of
// sparse-packed bootstrapping, which bound the ModRaise overflow count.
func (r *Ring) SparseTernaryPoly(limbs, h int, rng *rand.Rand) *Poly {
	if h < 0 || h > r.N {
		panic(fmt.Sprintf("poly: hamming weight %d out of range [0,%d]", h, r.N))
	}
	p := r.NewPoly(limbs)
	perm := rng.Perm(r.N)[:h]
	for _, j := range perm {
		v := int64(1)
		if rng.Intn(2) == 0 {
			v = -1
		}
		for i := 0; i < limbs; i++ {
			p.Coeffs[i][j] = modmath.FromCentered(v, r.Mod(i).Q)
		}
	}
	return p
}

// GaussianPoly samples small error with a rounded Gaussian of the given
// standard deviation (σ ≈ 3.2 in CKKS), identical across limbs.
func (r *Ring) GaussianPoly(limbs int, sigma float64, rng *rand.Rand) *Poly {
	p := r.NewPoly(limbs)
	for j := 0; j < r.N; j++ {
		v := int64(rng.NormFloat64()*sigma + 0.5)
		for i := 0; i < limbs; i++ {
			p.Coeffs[i][j] = modmath.FromCentered(v, r.Mod(i).Q)
		}
	}
	return p
}

// SetBigCoeffs writes centered big-integer coefficients (as int64 values)
// into all limbs of p.
func (r *Ring) SetInt64Coeffs(p *Poly, coeffs []int64) {
	if len(coeffs) != r.N {
		panic(fmt.Sprintf("poly: got %d coefficients for ring degree %d", len(coeffs), r.N))
	}
	for i := 0; i < p.Limbs(); i++ {
		q := r.Mod(i).Q
		for j, v := range coeffs {
			p.Coeffs[i][j] = modmath.FromCentered(v, q)
		}
	}
	p.IsNTT = false
}

// Equal reports deep equality of populated limbs and representation.
func (p *Poly) Equal(q *Poly) bool {
	if p.Limbs() != q.Limbs() || p.IsNTT != q.IsNTT {
		return false
	}
	for i := range p.Coeffs {
		a, b := p.Coeffs[i], q.Coeffs[i]
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

func ensureLike(dst, src *Poly) {
	if dst.Limbs() < src.Limbs() {
		panic(fmt.Sprintf("poly: destination has %d limbs, source has %d", dst.Limbs(), src.Limbs()))
	}
	if dst.Limbs() > src.Limbs() {
		dst.Coeffs = dst.Coeffs[:src.Limbs()]
	}
}
