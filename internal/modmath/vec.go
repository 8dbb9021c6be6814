package modmath

import "math/bits"

// Vectorised kernels over []uint64 residue rows — the element-wise lane
// operations of the limb-major kernel layer. Every kernel re-slices its
// operands to a common length up front (bounds-check elimination) and
// unrolls the hot loop 8-wide, mirroring the 8-lane element-wise datapath
// of the PEs. Fully-reduced kernels use a branchless masked correction
// (q < 2^62 keeps every intermediate below 2^63, so the sign bit of
// x − q is the borrow); lazy kernels keep the redundant 2q range and are
// only for callers that correct at their own boundaries.

// condSub returns x mod-corrected by one conditional (branchless)
// subtraction of q: x ∈ [0, 2q) → [0, q). Valid for q < 2^62.
func condSub(x, q uint64) uint64 {
	t := x - q
	return t + (q & uint64(int64(t)>>63))
}

// vec3 re-slices a and b to dst's length, panicking (via the slice
// expression) when either is shorter; the compiler then knows all three
// share a length and drops the per-element bounds checks.
func vec3(dst, a, b []uint64) ([]uint64, []uint64, []uint64) {
	n := len(dst)
	return dst, a[:n:n], b[:n:n]
}

// AddVec sets dst[i] = (a[i] + b[i]) mod q. Inputs must be < q.
// dst may alias a or b.
func (m Modulus) AddVec(dst, a, b []uint64) {
	dst, a, b = vec3(dst, a, b)
	q := m.Q
	n := len(dst)
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = condSub(a[i+0]+b[i+0], q)
		dst[i+1] = condSub(a[i+1]+b[i+1], q)
		dst[i+2] = condSub(a[i+2]+b[i+2], q)
		dst[i+3] = condSub(a[i+3]+b[i+3], q)
		dst[i+4] = condSub(a[i+4]+b[i+4], q)
		dst[i+5] = condSub(a[i+5]+b[i+5], q)
		dst[i+6] = condSub(a[i+6]+b[i+6], q)
		dst[i+7] = condSub(a[i+7]+b[i+7], q)
	}
	for ; i < n; i++ {
		dst[i] = condSub(a[i]+b[i], q)
	}
}

// SubVec sets dst[i] = (a[i] − b[i]) mod q. Inputs must be < q.
// dst may alias a or b.
func (m Modulus) SubVec(dst, a, b []uint64) {
	dst, a, b = vec3(dst, a, b)
	q := m.Q
	n := len(dst)
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = condSub(a[i+0]+q-b[i+0], q)
		dst[i+1] = condSub(a[i+1]+q-b[i+1], q)
		dst[i+2] = condSub(a[i+2]+q-b[i+2], q)
		dst[i+3] = condSub(a[i+3]+q-b[i+3], q)
		dst[i+4] = condSub(a[i+4]+q-b[i+4], q)
		dst[i+5] = condSub(a[i+5]+q-b[i+5], q)
		dst[i+6] = condSub(a[i+6]+q-b[i+6], q)
		dst[i+7] = condSub(a[i+7]+q-b[i+7], q)
	}
	for ; i < n; i++ {
		dst[i] = condSub(a[i]+q-b[i], q)
	}
}

// NegVec sets dst[i] = (−a[i]) mod q. Inputs must be < q.
func (m Modulus) NegVec(dst, a []uint64) {
	n := len(dst)
	a = a[:n:n]
	q := m.Q
	for i := 0; i < n; i++ {
		// q−a is q (not 0) at a=0; the masked correction folds it back.
		dst[i] = condSub(q-a[i], q)
	}
}

// MulVec sets dst[i] = a[i]·b[i] mod q via Barrett reduction (both
// operands data-dependent, so no Shoup constant applies). dst may alias.
func (m Modulus) MulVec(dst, a, b []uint64) {
	dst, a, b = vec3(dst, a, b)
	for i := range dst {
		dst[i] = m.Mul(a[i], b[i])
	}
}

// MulAddVec sets dst[i] = (dst[i] + a[i]·b[i]) mod q — the fused
// multiply-accumulate of the inner-product kernels. All inputs < q.
func (m Modulus) MulAddVec(dst, a, b []uint64) {
	dst, a, b = vec3(dst, a, b)
	q := m.Q
	for i := range dst {
		dst[i] = condSub(dst[i]+m.Mul(a[i], b[i]), q)
	}
}

// MulShoupVec sets dst[i] = a[i]·w mod q for a fixed multiplicand w < q
// with wShoup = ShoupPrecomp(w). Inputs a[i] may be any uint64
// (redundant residues included); outputs are fully reduced.
func (m Modulus) MulShoupVec(dst, a []uint64, w, wShoup uint64) {
	n := len(dst)
	a = a[:n:n]
	q := m.Q
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = condSub(m.MulShoupLazy(a[i+0], w, wShoup), q)
		dst[i+1] = condSub(m.MulShoupLazy(a[i+1], w, wShoup), q)
		dst[i+2] = condSub(m.MulShoupLazy(a[i+2], w, wShoup), q)
		dst[i+3] = condSub(m.MulShoupLazy(a[i+3], w, wShoup), q)
		dst[i+4] = condSub(m.MulShoupLazy(a[i+4], w, wShoup), q)
		dst[i+5] = condSub(m.MulShoupLazy(a[i+5], w, wShoup), q)
		dst[i+6] = condSub(m.MulShoupLazy(a[i+6], w, wShoup), q)
		dst[i+7] = condSub(m.MulShoupLazy(a[i+7], w, wShoup), q)
	}
	for ; i < n; i++ {
		dst[i] = condSub(m.MulShoupLazy(a[i], w, wShoup), q)
	}
}

// MulShoupLazyVec is MulShoupVec without the final correction: outputs
// are 2q-residues. Only for pipelines that correct at a later stage.
func (m Modulus) MulShoupLazyVec(dst, a []uint64, w, wShoup uint64) {
	n := len(dst)
	a = a[:n:n]
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = m.MulShoupLazy(a[i+0], w, wShoup)
		dst[i+1] = m.MulShoupLazy(a[i+1], w, wShoup)
		dst[i+2] = m.MulShoupLazy(a[i+2], w, wShoup)
		dst[i+3] = m.MulShoupLazy(a[i+3], w, wShoup)
		dst[i+4] = m.MulShoupLazy(a[i+4], w, wShoup)
		dst[i+5] = m.MulShoupLazy(a[i+5], w, wShoup)
		dst[i+6] = m.MulShoupLazy(a[i+6], w, wShoup)
		dst[i+7] = m.MulShoupLazy(a[i+7], w, wShoup)
	}
	for ; i < n; i++ {
		dst[i] = m.MulShoupLazy(a[i], w, wShoup)
	}
}

// MulShoupPairVec sets dst[i] = a[i]·w[i] mod q for a constant vector w
// with per-entry Shoup companions (twist and twiddle tables). Inputs
// a[i] may be redundant residues; outputs are fully reduced.
func (m Modulus) MulShoupPairVec(dst, a, w, wShoup []uint64) {
	n := len(dst)
	a, w, wShoup = a[:n:n], w[:n:n], wShoup[:n:n]
	q := m.Q
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = condSub(m.MulShoupLazy(a[i+0], w[i+0], wShoup[i+0]), q)
		dst[i+1] = condSub(m.MulShoupLazy(a[i+1], w[i+1], wShoup[i+1]), q)
		dst[i+2] = condSub(m.MulShoupLazy(a[i+2], w[i+2], wShoup[i+2]), q)
		dst[i+3] = condSub(m.MulShoupLazy(a[i+3], w[i+3], wShoup[i+3]), q)
		dst[i+4] = condSub(m.MulShoupLazy(a[i+4], w[i+4], wShoup[i+4]), q)
		dst[i+5] = condSub(m.MulShoupLazy(a[i+5], w[i+5], wShoup[i+5]), q)
		dst[i+6] = condSub(m.MulShoupLazy(a[i+6], w[i+6], wShoup[i+6]), q)
		dst[i+7] = condSub(m.MulShoupLazy(a[i+7], w[i+7], wShoup[i+7]), q)
	}
	for ; i < n; i++ {
		dst[i] = condSub(m.MulShoupLazy(a[i], w[i], wShoup[i]), q)
	}
}

// MulShoupPairLazyVec is MulShoupPairVec without the final correction:
// outputs are 2q-residues for consumption by a lazy transform stage.
func (m Modulus) MulShoupPairLazyVec(dst, a, w, wShoup []uint64) {
	n := len(dst)
	a, w, wShoup = a[:n:n], w[:n:n], wShoup[:n:n]
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = m.MulShoupLazy(a[i+0], w[i+0], wShoup[i+0])
		dst[i+1] = m.MulShoupLazy(a[i+1], w[i+1], wShoup[i+1])
		dst[i+2] = m.MulShoupLazy(a[i+2], w[i+2], wShoup[i+2])
		dst[i+3] = m.MulShoupLazy(a[i+3], w[i+3], wShoup[i+3])
		dst[i+4] = m.MulShoupLazy(a[i+4], w[i+4], wShoup[i+4])
		dst[i+5] = m.MulShoupLazy(a[i+5], w[i+5], wShoup[i+5])
		dst[i+6] = m.MulShoupLazy(a[i+6], w[i+6], wShoup[i+6])
		dst[i+7] = m.MulShoupLazy(a[i+7], w[i+7], wShoup[i+7])
	}
	for ; i < n; i++ {
		dst[i] = m.MulShoupLazy(a[i], w[i], wShoup[i])
	}
}

// MulShoupAccLazyVec accumulates acc[i] += a[i]·w (mod-lazily) keeping
// the 2q-residue invariant: each new Shoup product (< 2q) is added to
// the running 2q-residue and the 4q sum is folded once back below 2q.
// This is the BConv inner loop: k accumulations cost k conditional
// folds instead of k full Barrett reductions. Callers must start from
// 2q-residues (zeros qualify) and CorrectLazyVec at the end.
func (m Modulus) MulShoupAccLazyVec(acc, a []uint64, w, wShoup uint64) {
	n := len(acc)
	a = a[:n:n]
	twoQ := m.Q << 1
	i := 0
	for ; i+7 < n; i += 8 {
		acc[i+0] = condSub(acc[i+0]+m.MulShoupLazy(a[i+0], w, wShoup), twoQ)
		acc[i+1] = condSub(acc[i+1]+m.MulShoupLazy(a[i+1], w, wShoup), twoQ)
		acc[i+2] = condSub(acc[i+2]+m.MulShoupLazy(a[i+2], w, wShoup), twoQ)
		acc[i+3] = condSub(acc[i+3]+m.MulShoupLazy(a[i+3], w, wShoup), twoQ)
		acc[i+4] = condSub(acc[i+4]+m.MulShoupLazy(a[i+4], w, wShoup), twoQ)
		acc[i+5] = condSub(acc[i+5]+m.MulShoupLazy(a[i+5], w, wShoup), twoQ)
		acc[i+6] = condSub(acc[i+6]+m.MulShoupLazy(a[i+6], w, wShoup), twoQ)
		acc[i+7] = condSub(acc[i+7]+m.MulShoupLazy(a[i+7], w, wShoup), twoQ)
	}
	for ; i < n; i++ {
		acc[i] = condSub(acc[i]+m.MulShoupLazy(a[i], w, wShoup), twoQ)
	}
}

// CorrectLazyVec corrects 2q-residues in place to the canonical [0, q).
func (m Modulus) CorrectLazyVec(a []uint64) {
	q := m.Q
	for i, x := range a {
		a[i] = condSub(x, q)
	}
}

// ReduceFourQVec corrects 4q-residues in place to the canonical [0, q).
func (m Modulus) ReduceFourQVec(a []uint64) {
	q := m.Q
	twoQ := q << 1
	for i, x := range a {
		a[i] = condSub(condSub(x, twoQ), q)
	}
}

// SubMulShoupVec sets dst[i] = (a[i] − b[i])·w mod q for a fixed w < q —
// the fused rescale/ModDown kernel (x − correction)·c with a Shoup
// constant. a and b must be < q; outputs are fully reduced.
func (m Modulus) SubMulShoupVec(dst, a, b []uint64, w, wShoup uint64) {
	dst, a, b = vec3(dst, a, b)
	q := m.Q
	n := len(dst)
	i := 0
	for ; i+7 < n; i += 8 {
		dst[i+0] = condSub(m.MulShoupLazy(a[i+0]+q-b[i+0], w, wShoup), q)
		dst[i+1] = condSub(m.MulShoupLazy(a[i+1]+q-b[i+1], w, wShoup), q)
		dst[i+2] = condSub(m.MulShoupLazy(a[i+2]+q-b[i+2], w, wShoup), q)
		dst[i+3] = condSub(m.MulShoupLazy(a[i+3]+q-b[i+3], w, wShoup), q)
		dst[i+4] = condSub(m.MulShoupLazy(a[i+4]+q-b[i+4], w, wShoup), q)
		dst[i+5] = condSub(m.MulShoupLazy(a[i+5]+q-b[i+5], w, wShoup), q)
		dst[i+6] = condSub(m.MulShoupLazy(a[i+6]+q-b[i+6], w, wShoup), q)
		dst[i+7] = condSub(m.MulShoupLazy(a[i+7]+q-b[i+7], w, wShoup), q)
	}
	for ; i < n; i++ {
		dst[i] = condSub(m.MulShoupLazy(a[i]+q-b[i], w, wShoup), q)
	}
}

// AddScalarVec sets dst[i] = (a[i] + c) mod q for a constant c < q.
func (m Modulus) AddScalarVec(dst, a []uint64, c uint64) {
	n := len(dst)
	a = a[:n:n]
	q := m.Q
	for i := 0; i < n; i++ {
		dst[i] = condSub(a[i]+c, q)
	}
}

// lazyTerms returns how many products of reduced residues a 128-bit
// accumulator may sum before Reduce128's precondition hi < q could fail.
// k products of operands < q sum to at most k·(q−1)² < k·q·q, which stays
// below q·2^64 whenever k·q ≤ 2^64; so k = ⌊(2^64−1)/q⌋, which is at
// least 4 for every modulus below 2^62.
func (m Modulus) lazyTerms() int {
	k := ^uint64(0) / m.Q
	if k > 1<<30 {
		k = 1 << 30
	}
	return int(k)
}

// DotPairGatherVec sets, for every i,
//
//	dst0[i] = Σ_k x[k][j]·w0[k][i] mod q,   dst1[i] = Σ_k x[k][j]·w1[k][i] mod q,
//
// with j = idx[i], or j = i when idx is nil. This is the key-switch inner
// product of the digit rows x with both halves of a switching key, fused
// with the gather that applies an NTT-domain automorphism to the digits.
// Each sum runs in a 128-bit accumulator with one Barrett reduction per
// output word. Sums longer than lazyTerms() are reduced every lazyTerms()
// terms; the carried residue counts as one term, since q−1 ≤ (q−1)².
// All inputs must be < q, and dst0/dst1 must not alias any row of x.
func (m Modulus) DotPairGatherVec(dst0, dst1 []uint64, idx []uint32, x, w0, w1 [][]uint64) {
	n := len(dst0)
	dst1 = dst1[:n:n]
	if len(w0) != len(x) || len(w1) != len(x) {
		panic("modmath: DotPairGatherVec term count mismatch")
	}
	if idx != nil {
		idx = idx[:n:n]
	}
	for k := range x {
		if len(x[k]) < n || len(w0[k]) < n || len(w1[k]) < n {
			panic("modmath: DotPairGatherVec row shorter than destination")
		}
	}
	limit := m.lazyTerms()
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = int(idx[i])
		}
		var h0, l0, h1, l1 uint64
		terms := 0
		for k, row := range x {
			if terms == limit {
				l0, h0 = m.reduce128(h0, l0), 0
				l1, h1 = m.reduce128(h1, l1), 0
				terms = 1
			}
			v := row[j]
			var c uint64
			ph, pl := bits.Mul64(v, w0[k][i])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, w1[k][i])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			terms++
		}
		dst0[i] = m.reduce128(h0, l0)
		dst1[i] = m.reduce128(h1, l1)
	}
}
