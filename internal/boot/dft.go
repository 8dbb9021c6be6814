package boot

import (
	"math"
	"math/cmplx"

	"crophe/internal/ckks"
	"crophe/internal/workload"
)

// The homomorphic DFTs of bootstrapping move data between the coefficient
// and slot domains. With decoding z_j = Σ_k a_k·ζ^{k·5^j} (ζ = e^{iπ/N}),
// CoeffToSlot extracts the two real coefficient halves a_lo = (a_0..a_{N/2-1})
// and a_hi = (a_{N/2}..a_{N-1}) into the slots of two ciphertexts — each a
// plaintext linear transform applied to the ciphertext and its conjugate —
// and SlotToCoeff rebuilds z from them. EvalMod then acts slot-wise on the
// two real-valued ciphertexts. These are exactly the PtMatVecMult (BSGS)
// workloads that dominate bootstrap time in the paper.

// DFTMatrices is a conjugate-pair map out = M1·z + M2·conj(z).
type DFTMatrices struct {
	M1, M2 *LinearTransform
}

// Rotations returns the union of rotation amounts both matrices need.
func (d *DFTMatrices) Rotations() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range append(d.M1.Rotations(), d.M2.Rotations()...) {
		if !seen[r] && r != 0 {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// CoeffToSlot bundles the two conjugate-pair maps extracting a_lo and a_hi.
type CoeffToSlot struct {
	Lo, Hi *DFTMatrices
}

// SlotToCoeff bundles the two plain linear maps rebuilding the slots:
// z = F1·a_lo + F2·a_hi.
type SlotToCoeff struct {
	F1, F2 *LinearTransform
}

// CoeffToSlotMatrices builds the C2S maps for the parameter ring.
// With E1_{k,j} = conj(ζ^{k·5^j}) (k < N/2) and E2 its shifted twin
// (rows k+N/2), orthogonality of the ±5^j orbit gives
//
//	a_lo = (E1·z + conj(E1·z)) / N,   a_hi = (E2·z + conj(E2·z)) / N,
//
// i.e. each half is the conjugate pair (E/N, conj(E)/N).
func CoeffToSlotMatrices(params *ckks.Parameters) *CoeffToSlot {
	n := params.N()
	slots := n / 2
	zeta := zetaPowers(n)
	rot := rotGroup(n)

	build := func(rowOffset int) *DFTMatrices {
		m1 := make([][]complex128, slots)
		m2 := make([][]complex128, slots)
		for k := 0; k < slots; k++ {
			m1[k] = make([]complex128, slots)
			m2[k] = make([]complex128, slots)
			for j := 0; j < slots; j++ {
				e := cmplx.Conj(zeta[(uint64(k+rowOffset)*rot[j])%uint64(2*n)])
				m1[k][j] = e / complex(float64(n), 0)
				m2[k][j] = cmplx.Conj(e) / complex(float64(n), 0)
			}
		}
		return &DFTMatrices{
			M1: mustLinearTransform(m1, "coeff-to-slot E"),
			M2: mustLinearTransform(m2, "coeff-to-slot conj(E)"),
		}
	}
	return &CoeffToSlot{Lo: build(0), Hi: build(slots)}
}

// SlotToCoeffMatrices builds the inverse maps F1_{j,k} = ζ^{k·5^j} and
// F2_{j,k} = ζ^{(k+N/2)·5^j}.
func SlotToCoeffMatrices(params *ckks.Parameters) *SlotToCoeff {
	n := params.N()
	slots := n / 2
	zeta := zetaPowers(n)
	rot := rotGroup(n)

	f1 := make([][]complex128, slots)
	f2 := make([][]complex128, slots)
	for j := 0; j < slots; j++ {
		f1[j] = make([]complex128, slots)
		f2[j] = make([]complex128, slots)
		for k := 0; k < slots; k++ {
			f1[j][k] = zeta[(uint64(k)*rot[j])%uint64(2*n)]
			f2[j][k] = zeta[(uint64(k+slots)*rot[j])%uint64(2*n)]
		}
	}
	return &SlotToCoeff{
		F1: mustLinearTransform(f1, "slot-to-coeff F1"),
		F2: mustLinearTransform(f2, "slot-to-coeff F2"),
	}
}

// Rotations returns the rotation amounts both C2S maps need.
func (c *CoeffToSlot) Rotations() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range append(c.Lo.Rotations(), c.Hi.Rotations()...) {
		if !seen[r] && r != 0 {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// Rotations returns the rotation amounts both S2C maps need.
func (s *SlotToCoeff) Rotations() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range append(s.F1.Rotations(), s.F2.Rotations()...) {
		if !seen[r] && r != 0 {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// EvaluateConjPair computes M1·ct + M2·conj(ct) with BSGS linear
// transforms.
func EvaluateConjPair(
	eval *ckks.Evaluator, enc *ckks.Encoder, d *DFTMatrices,
	ct *ckks.Ciphertext, mode workload.RotMode, rHyb int,
) (*ckks.Ciphertext, error) {
	conj, err := eval.Conjugate(ct)
	if err != nil {
		return nil, err
	}
	t1, err := d.M1.Evaluate(eval, enc, ct, mode, rHyb)
	if err != nil {
		return nil, err
	}
	t2, err := d.M2.Evaluate(eval, enc, conj, mode, rHyb)
	if err != nil {
		return nil, err
	}
	return eval.Add(t1, t2)
}

// Evaluate runs CoeffToSlot, returning the two real-valued ciphertexts
// (a_lo, a_hi).
func (c *CoeffToSlot) Evaluate(
	eval *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext,
	mode workload.RotMode, rHyb int,
) (lo, hi *ckks.Ciphertext, err error) {
	if lo, err = EvaluateConjPair(eval, enc, c.Lo, ct, mode, rHyb); err != nil {
		return nil, nil, err
	}
	if hi, err = EvaluateConjPair(eval, enc, c.Hi, ct, mode, rHyb); err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// Evaluate runs SlotToCoeff on the two halves.
func (s *SlotToCoeff) Evaluate(
	eval *ckks.Evaluator, enc *ckks.Encoder, lo, hi *ckks.Ciphertext,
	mode workload.RotMode, rHyb int,
) (*ckks.Ciphertext, error) {
	t1, err := s.F1.Evaluate(eval, enc, lo, mode, rHyb)
	if err != nil {
		return nil, err
	}
	t2, err := s.F2.Evaluate(eval, enc, hi, mode, rHyb)
	if err != nil {
		return nil, err
	}
	return eval.Add(t1, t2)
}

// ApplyPlain applies C2S in plain arithmetic (reference for tests).
func (c *CoeffToSlot) ApplyPlain(z []complex128) (lo, hi []complex128) {
	conj := conjVec(z)
	lo = addVec(c.Lo.M1.Apply(z), c.Lo.M2.Apply(conj))
	hi = addVec(c.Hi.M1.Apply(z), c.Hi.M2.Apply(conj))
	return lo, hi
}

// ApplyPlain applies S2C in plain arithmetic (reference for tests).
func (s *SlotToCoeff) ApplyPlain(lo, hi []complex128) []complex128 {
	return addVec(s.F1.Apply(lo), s.F2.Apply(hi))
}

func conjVec(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i := range v {
		out[i] = cmplx.Conj(v[i])
	}
	return out
}

func addVec(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func zetaPowers(n int) []complex128 {
	z := make([]complex128, 2*n)
	for t := 0; t < 2*n; t++ {
		z[t] = cmplx.Exp(complex(0, math.Pi*float64(t)/float64(n)))
	}
	return z
}

func rotGroup(n int) []uint64 {
	g := make([]uint64, n/2)
	v := uint64(1)
	for j := range g {
		g[j] = v
		v = v * 5 % uint64(2*n)
	}
	return g
}
