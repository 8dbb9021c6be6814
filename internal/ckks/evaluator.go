package ckks

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"crophe/internal/ntt"
	"crophe/internal/parallel"
	"crophe/internal/poly"
	"crophe/internal/rns"
)

// Evaluator executes homomorphic operations. It caches the per-(level,
// digit) base-conversion tables that ModUp and ModDown use, so the first
// operation at a level pays the precomputation and subsequent ones do not.
// The caches are mutex-guarded and every operation writes only freshly
// allocated outputs, so one Evaluator is safe for concurrent use across
// goroutines (parameters, keys, and conversion tables are immutable once
// built).
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet

	convMu      sync.Mutex           // guards the two conversion caches
	modUpConv   map[[2]int]*rns.Conv // (level, digit) → digit → complement conversion
	modDownConv map[int]*rns.Conv    // level → P → Q_level conversion
}

// NewEvaluator builds an evaluator bound to an evaluation-key set. The key
// set may be nil if only key-free operations (Add, MulPlain, Rescale) are
// used.
func NewEvaluator(params *Parameters, keys *EvaluationKeySet) *Evaluator {
	return &Evaluator{
		params:      params,
		keys:        keys,
		modUpConv:   make(map[[2]int]*rns.Conv),
		modDownConv: make(map[int]*rns.Conv),
	}
}

func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	if a.Level == b.Level {
		return a, b
	}
	if a.Level > b.Level {
		a = a.CopyCt()
		a.B.DropLevel(b.Level + 1)
		a.A.DropLevel(b.Level + 1)
		a.Level = b.Level
		return a, b
	}
	b = b.CopyCt()
	b.B.DropLevel(a.Level + 1)
	b.A.DropLevel(a.Level + 1)
	b.Level = a.Level
	return a, b
}

// checkScales tolerates the small relative drift that accumulates when
// rescaling primes are close to, but not exactly, the scale Δ. Operands
// whose scales agree within this bound are combined as-is; the drift adds
// relative error far below the scheme's noise floor.
func checkScales(s0, s1 float64) error {
	if math.Abs(s0-s1) > 1e-4*math.Max(s0, s1) {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", s0, s1)
	}
	return nil
}

// Add returns ct0 + ct1 (HAdd). Levels are aligned by dropping limbs;
// scales must match.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if err := checkScales(ct0.Scale, ct1.Scale); err != nil {
		return nil, err
	}
	ct0, ct1 = ev.alignLevels(ct0, ct1)
	rq := ev.params.RingQ()
	out := &Ciphertext{
		B: rq.NewPoly(ct0.Level + 1), A: rq.NewPoly(ct0.Level + 1),
		Scale: ct0.Scale, Level: ct0.Level,
	}
	rq.Add(out.B, ct0.B, ct1.B)
	rq.Add(out.A, ct0.A, ct1.A)
	return out, nil
}

// Sub returns ct0 − ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if err := checkScales(ct0.Scale, ct1.Scale); err != nil {
		return nil, err
	}
	ct0, ct1 = ev.alignLevels(ct0, ct1)
	rq := ev.params.RingQ()
	out := &Ciphertext{
		B: rq.NewPoly(ct0.Level + 1), A: rq.NewPoly(ct0.Level + 1),
		Scale: ct0.Scale, Level: ct0.Level,
	}
	rq.Sub(out.B, ct0.B, ct1.B)
	rq.Sub(out.A, ct0.A, ct1.A)
	return out, nil
}

// AddPlain returns ct + pt (PAdd).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := checkScales(ct.Scale, pt.Scale); err != nil {
		return nil, err
	}
	level := ct.Level
	if pt.Level < level {
		level = pt.Level
	}
	rq := ev.params.RingQ()
	out := &Ciphertext{
		B: rq.NewPoly(level + 1), A: rq.NewPoly(level + 1),
		Scale: ct.Scale, Level: level,
	}
	ctB := &poly.Poly{Coeffs: ct.B.Coeffs[:level+1], IsNTT: true}
	ptV := &poly.Poly{Coeffs: pt.Value.Coeffs[:level+1], IsNTT: true}
	rq.Add(out.B, ctB, ptV)
	copyLimbs(out.A, ct.A, level+1)
	return out, nil
}

// MulPlain returns ct ⊙ pt (PMult). The result scale is the product; call
// Rescale afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	level := ct.Level
	if pt.Level < level {
		level = pt.Level
	}
	rq := ev.params.RingQ()
	out := &Ciphertext{
		B: rq.NewPoly(level + 1), A: rq.NewPoly(level + 1),
		Scale: ct.Scale * pt.Scale, Level: level,
	}
	ctB := &poly.Poly{Coeffs: ct.B.Coeffs[:level+1], IsNTT: true}
	ctA := &poly.Poly{Coeffs: ct.A.Coeffs[:level+1], IsNTT: true}
	ptV := &poly.Poly{Coeffs: pt.Value.Coeffs[:level+1], IsNTT: true}
	rq.MulHadamard(out.B, ctB, ptV)
	rq.MulHadamard(out.A, ctA, ptV)
	return out, nil
}

// AddConst returns ct + c for a real constant c (CAdd): a constant slot
// vector encodes to a constant polynomial, which in the NTT domain is the
// same value in every slot.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	out := ct.CopyCt()
	rq := ev.params.RingQ()
	for i := 0; i <= ct.Level; i++ {
		m := rq.Mod(i)
		v := int64(math.Round(c * ct.Scale))
		var vm uint64
		if v >= 0 {
			vm = m.Reduce(uint64(v))
		} else {
			vm = m.Neg(m.Reduce(uint64(-v)))
		}
		bi := out.B.Coeffs[i]
		m.AddScalarVec(bi, bi, vm)
	}
	return out
}

// MulConst returns ct · c for a real constant c (CMult), scaling by Δ; the
// result scale is ct.Scale·Δ, so a Rescale typically follows.
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64) *Ciphertext {
	rq := ev.params.RingQ()
	k := int64(math.Round(c * ev.params.Scale))
	out := &Ciphertext{
		B: rq.NewPoly(ct.Level + 1), A: rq.NewPoly(ct.Level + 1),
		Scale: ct.Scale * ev.params.Scale, Level: ct.Level,
	}
	mulSignedScalar(rq, out.B, ct.B, k)
	mulSignedScalar(rq, out.A, ct.A, k)
	return out
}

// MulNoRelin returns the degree-2 tensor product (d0, d1, d2) without
// key-switching. Useful for lazy relinearisation: several products can be
// accumulated (Add supports degree-2 operands of equal degree via their
// D2 parts at the caller's discretion) and relinearised once.
func (ev *Evaluator) MulNoRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, fmt.Errorf("ckks: MulNoRelin requires degree-1 operands")
	}
	ct0, ct1 = ev.alignLevels(ct0, ct1)
	rq := ev.params.RingQ()
	limbs := ct0.Level + 1
	out := &Ciphertext{
		B: rq.NewPoly(limbs), A: rq.NewPoly(limbs), D2: rq.NewPoly(limbs),
		Scale: ct0.Scale * ct1.Scale, Level: ct0.Level,
	}
	rq.MulHadamard(out.B, ct0.B, ct1.B)
	rq.MulHadamard(out.A, ct0.A, ct1.B)
	rq.MulAddHadamard(out.A, ct0.B, ct1.A)
	rq.MulHadamard(out.D2, ct0.A, ct1.A)
	return out, nil
}

// Relinearize converts a degree-2 ciphertext back to degree 1 by
// key-switching its D2 component with the relinearisation key.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() != 2 {
		return nil, fmt.Errorf("ckks: Relinearize requires a degree-2 ciphertext")
	}
	if ev.keys == nil || ev.keys.Relin == nil {
		return nil, fmt.Errorf("ckks: Relinearize requires a relinearisation key")
	}
	rq := ev.params.RingQ()
	c0, c1, err := ev.keySwitch(ct.D2, ct.Level, ev.keys.Relin)
	if err != nil {
		return nil, err
	}
	out := &Ciphertext{
		B: rq.NewPoly(ct.Level + 1), A: rq.NewPoly(ct.Level + 1),
		Scale: ct.Scale, Level: ct.Level,
	}
	rq.Add(out.B, ct.B, c0)
	rq.Add(out.A, ct.A, c1)
	return out, nil
}

// MulRelin returns ct0 · ct1 followed by relinearisation with the relin
// key (HMult). The result scale is the product of scales.
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ev.keys == nil || ev.keys.Relin == nil {
		return nil, fmt.Errorf("ckks: MulRelin requires a relinearisation key")
	}
	ct0, ct1 = ev.alignLevels(ct0, ct1)
	rq := ev.params.RingQ()
	level := ct0.Level
	limbs := level + 1

	// Tensor product: (d0, d1, d2).
	d0 := rq.NewPoly(limbs)
	d1 := rq.NewPoly(limbs)
	d2 := rq.NewPoly(limbs)
	rq.MulHadamard(d0, ct0.B, ct1.B)
	rq.MulHadamard(d1, ct0.A, ct1.B)
	rq.MulAddHadamard(d1, ct0.B, ct1.A)
	rq.MulHadamard(d2, ct0.A, ct1.A)

	// KeySwitch(d2) and fold in.
	c0, c1, err := ev.keySwitch(d2, level, ev.keys.Relin)
	if err != nil {
		return nil, err
	}
	rq.Add(d0, d0, c0)
	rq.Add(d1, d1, c1)
	return &Ciphertext{B: d0, A: d1, Scale: ct0.Scale * ct1.Scale, Level: level}, nil
}

// Rescale divides the ciphertext by the top modulus q_ℓ, dropping one
// level and dividing the scale by q_ℓ (HRescale).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0")
	}
	rq := ev.params.RingQ()
	level := ct.Level
	qL := rq.Mod(level).Q

	out := &Ciphertext{
		B: rq.NewPoly(level), A: rq.NewPoly(level),
		Scale: ct.Scale / float64(qL), Level: level - 1,
	}
	rescalePoly(ev.params, out.B, ct.B, level)
	rescalePoly(ev.params, out.A, ct.A, level)
	return out, nil
}

// rescalePoly computes dst_i = (src_i − src_ℓ)·q_ℓ^{-1} mod q_i for
// i < ℓ, with the last limb lifted through the coefficient domain.
func rescalePoly(params *Parameters, dst, src *poly.Poly, level int) {
	rq := params.RingQ()
	qL := rq.Mod(level)

	// Last limb to coefficient form.
	last := append([]uint64(nil), src.Coeffs[level]...)
	rq.Tables[level].Inverse(last)

	n := rq.N
	parallel.For(level, func(i int) {
		m := rq.Mod(i)
		qlInv := m.Inv(m.Reduce(qL.Q))
		// Lift last-limb coefficients (centered) into q_i and NTT them
		// under q_i so the subtraction happens in the NTT domain.
		lifted := make([]uint64, n)
		for j := 0; j < n; j++ {
			v := last[j]
			if v > qL.Q/2 { // centered lift
				lifted[j] = m.Sub(m.Reduce(v), m.Reduce(qL.Q))
			} else {
				lifted[j] = m.Reduce(v)
			}
		}
		rq.Tables[i].Forward(lifted)
		m.SubMulShoupVec(dst.Coeffs[i], src.Coeffs[i], lifted, qlInv, m.ShoupPrecomp(qlInv))
	})
	dst.IsNTT = true
}

// Rotate applies HRot: homomorphically rotates slots left by r using the
// rotation key for r.
func (ev *Evaluator) Rotate(ct *Ciphertext, r int) (*Ciphertext, error) {
	if ev.keys == nil {
		return nil, fmt.Errorf("ckks: Rotate requires rotation keys")
	}
	key, err := ev.keys.RotKey(r)
	if err != nil {
		return nil, err
	}
	return ev.automorphism(ct, ev.params.RingQ().GaloisElement(r), key)
}

// Conjugate applies the conjugation automorphism.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if ev.keys == nil || ev.keys.Conj == nil {
		return nil, fmt.Errorf("ckks: Conjugate requires the conjugation key")
	}
	return ev.automorphism(ct, ev.params.RingQ().GaloisElementConjugate(), ev.keys.Conj)
}

func (ev *Evaluator) automorphism(ct *Ciphertext, galois uint64, key *SwitchingKey) (*Ciphertext, error) {
	rq := ev.params.RingQ()
	level := ct.Level
	limbs := level + 1

	// σ_g permutes NTT slots, so both halves stay in the NTT domain.
	bAuto := rq.NewPoly(limbs)
	aAuto := rq.NewPoly(limbs)
	rq.AutomorphismNTT(bAuto, &poly.Poly{Coeffs: ct.B.Coeffs[:limbs], IsNTT: true}, galois)
	rq.AutomorphismNTT(aAuto, &poly.Poly{Coeffs: ct.A.Coeffs[:limbs], IsNTT: true}, galois)

	c0, c1, err := ev.keySwitch(aAuto, level, key)
	if err != nil {
		return nil, err
	}
	rq.Add(c0, c0, bAuto)
	return &Ciphertext{B: c0, A: c1, Scale: ct.Scale, Level: level}, nil
}

// nttTally counts the per-limb transforms of the key-switch path, so a
// test can pin them to the scheduler's graph of the same operation.
// tally is nil except inside that test; a nil tally costs one pointer
// load per length-N transform.
type nttTally struct{ forward, inverse atomic.Int64 }

var tally atomic.Pointer[nttTally]

func forwardNTT(t *ntt.Table, row []uint64) {
	if c := tally.Load(); c != nil {
		c.forward.Add(1)
	}
	t.Forward(row)
}

func inverseNTT(t *ntt.Table, row []uint64) {
	if c := tally.Load(); c != nil {
		c.inverse.Add(1)
	}
	t.Inverse(row)
}

// keySwitch implements Decomp → ModUp → KSKInP → ModDown.
func (ev *Evaluator) keySwitch(x *poly.Poly, level int, key *SwitchingKey) (*poly.Poly, *poly.Poly, error) {
	if x.Limbs() != level+1 {
		return nil, nil, fmt.Errorf("ckks: keySwitch operand has %d limbs, want %d", x.Limbs(), level+1)
	}
	if err := checkKeyDigits(key, level, ev.params.Alpha); err != nil {
		return nil, nil, err
	}
	arena := getArena()
	defer arena.release()
	extQP := ev.extendedBasis(level)
	ext, err := ev.modUpNTT(x, level, extQP, arena)
	if err != nil {
		return nil, nil, err
	}
	acc0, acc1 := ev.keyInnerProduct(ext, extQP, nil, key, arena)
	return ev.modDownPair(acc0, acc1, extQP, level)
}

func checkKeyDigits(key *SwitchingKey, level, alpha int) error {
	if need := len(rns.DigitBounds(level, alpha)); need > key.Digits() {
		return fmt.Errorf("ckks: key has %d digits, need %d", key.Digits(), need)
	}
	return nil
}

// extendedBasis returns the QP indices of the ModUp basis at a level:
// q_0..q_level, then p_0..p_{α−1}.
func (ev *Evaluator) extendedBasis(level int) []int {
	nQ := len(ev.params.Q)
	extQP := make([]int, 0, level+1+ev.params.Alpha)
	for i := 0; i <= level; i++ {
		extQP = append(extQP, i)
	}
	for j := 0; j < ev.params.Alpha; j++ {
		extQP = append(extQP, nQ+j)
	}
	return extQP
}

// modUpNTT runs Decomp → ModUp → NTT on the NTT-form operand x: one
// inverse transform per limb of x, then per digit a base conversion to the
// complement limbs and a forward transform of every extended limb. It
// returns ext[digit][t], the digit's limb at QP index extQP[t] in NTT
// form, carved from arena. Digits are independent pool tasks.
func (ev *Evaluator) modUpNTT(x *poly.Poly, level int, extQP []int, arena *ksArena) ([][][]uint64, error) {
	rq := ev.params.RingQ()
	rqp := ev.params.RingQP()
	n := rq.N
	nExt := len(extQP)
	digits := rns.DigitBounds(level, ev.params.Alpha)

	// Decomp: operand to coefficient form once.
	xc := arena.rows(level+1, n, false)
	parallel.ForChunk(level+1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(xc[i], x.Coeffs[i])
			inverseNTT(rq.Tables[i], xc[i])
		}
	})

	// Arena carving is not concurrency-safe, so every digit's rows are
	// carved before the digits fan out.
	ext := make([][][]uint64, len(digits))
	for d := range ext {
		ext[d] = arena.rows(nExt, n, false)
	}
	errs := make([]error, len(digits))
	parallel.For(len(digits), func(d int) {
		lo, hi := digits[d][0], digits[d][1]
		conv, err := ev.modUpConvFor(level, d, lo, hi)
		if err != nil {
			errs[d] = err
			return
		}
		// ModUp: digit limbs copied, complement limbs base-converted.
		rows := ext[d]
		compRows := make([][]uint64, 0, nExt-(hi-lo))
		for t, qp := range extQP {
			if qp >= lo && qp < hi {
				copy(rows[t], xc[qp])
			} else {
				compRows = append(compRows, rows[t])
			}
		}
		conv.ConvertColumns(compRows, xc[lo:hi])
		// Limb rows are disjoint, so the transforms nest inside the digit
		// task.
		parallel.For(nExt, func(t int) {
			forwardNTT(rqp.Tables[extQP[t]], rows[t])
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ext, nil
}

// keyInnerProduct is KSKInP: per extended limb, the sums over digits of
// σ(ext[d]) ⊙ key.B[d] and σ(ext[d]) ⊙ key.A[d], where σ is the NTT-domain
// automorphism with slot map idx (nil for none). One fused kernel call per
// limb gathers, multiplies and accumulates every digit lazily. The two
// accumulators are carved from arena.
func (ev *Evaluator) keyInnerProduct(ext [][][]uint64, extQP []int, idx []uint32, key *SwitchingKey, arena *ksArena) (acc0, acc1 [][]uint64) {
	rqp := ev.params.RingQP()
	nExt := len(extQP)
	acc0 = arena.rows(nExt, rqp.N, false)
	acc1 = arena.rows(nExt, rqp.N, false)
	beta := len(ext)
	parallel.ForChunk(nExt, func(lo, hi int) {
		x, w0, w1 := make([][]uint64, beta), make([][]uint64, beta), make([][]uint64, beta)
		for t := lo; t < hi; t++ {
			qp := extQP[t]
			for d := range ext {
				x[d], w0[d], w1[d] = ext[d][t], key.B[d].Coeffs[qp], key.A[d].Coeffs[qp]
			}
			rqp.Mod(qp).DotPairGatherVec(acc0[t], acc1[t], idx, x, w0, w1)
		}
	})
	return acc0, acc1
}

// modDownPair maps both key-switch accumulators back to Q_level.
func (ev *Evaluator) modDownPair(acc0, acc1 [][]uint64, extQP []int, level int) (*poly.Poly, *poly.Poly, error) {
	c0, err := ev.modDown(acc0, extQP, level)
	if err != nil {
		return nil, nil, err
	}
	c1, err := ev.modDown(acc1, extQP, level)
	if err != nil {
		return nil, nil, err
	}
	return c0, c1, nil
}

// modDown maps an extended-basis accumulator (NTT form) back to Q_level,
// dividing by P.
func (ev *Evaluator) modDown(acc [][]uint64, extQP []int, level int) (*poly.Poly, error) {
	params := ev.params
	rqp := params.RingQP()
	rq := params.RingQ()
	nQ := len(params.Q)
	k := params.Alpha
	n := rq.N

	arena := getArena()
	defer arena.release()

	// P-part limbs to coefficient form.
	pPart := arena.rows(k, n, false)
	parallel.For(k, func(j int) {
		t := level + 1 + j // position within ext limb list
		copy(pPart[j], acc[t])
		inverseNTT(rqp.Tables[nQ+j], pPart[j])
	})

	// Convert P-part into Q_level.
	conv, err := ev.modDownConvFor(level)
	if err != nil {
		return nil, err
	}
	corr := arena.rows(level+1, n, false)
	conv.ConvertColumns(corr, pPart)

	out := rq.NewPoly(level + 1)
	out.IsNTT = true
	parallel.For(level+1, func(i int) {
		m := rq.Mod(i)
		forwardNTT(rq.Tables[i], corr[i])
		pInv := params.PInvModQ()[i]
		m.SubMulShoupVec(out.Coeffs[i], acc[i], corr[i], pInv, m.ShoupPrecomp(pInv))
	})
	return out, nil
}

// modUpConvFor returns (building and caching) the digit → complement
// conversion for a digit spanning q-limbs [lo, hi) at the given level.
// Parameter sets are validated at construction, so a basis failure here
// means the parameter set was corrupted after the fact; it is reported as
// an error rather than a crash.
func (ev *Evaluator) modUpConvFor(level, digit, lo, hi int) (*rns.Conv, error) {
	ck := [2]int{level, digit}
	ev.convMu.Lock()
	defer ev.convMu.Unlock()
	if c, ok := ev.modUpConv[ck]; ok {
		return c, nil
	}
	params := ev.params
	srcPrimes := params.Q[lo:hi]
	dstPrimes := make([]uint64, 0, level+1-(hi-lo)+params.Alpha)
	for i := 0; i <= level; i++ {
		if i < lo || i >= hi {
			dstPrimes = append(dstPrimes, params.Q[i])
		}
	}
	dstPrimes = append(dstPrimes, params.P...)
	src, err := rns.NewBasis(srcPrimes)
	if err != nil {
		return nil, fmt.Errorf("ckks: modup digit %d basis at level %d (limbs [%d,%d)): %w", digit, level, lo, hi, err)
	}
	dst, err := rns.NewBasis(dstPrimes)
	if err != nil {
		return nil, fmt.Errorf("ckks: modup complement basis at level %d (digit %d): %w", level, digit, err)
	}
	c := rns.NewConv(src, dst)
	ev.modUpConv[ck] = c
	return c, nil
}

func (ev *Evaluator) modDownConvFor(level int) (*rns.Conv, error) {
	ev.convMu.Lock()
	defer ev.convMu.Unlock()
	if c, ok := ev.modDownConv[level]; ok {
		return c, nil
	}
	params := ev.params
	src, err := rns.NewBasis(params.P)
	if err != nil {
		return nil, fmt.Errorf("ckks: moddown P basis (alpha=%d): %w", params.Alpha, err)
	}
	dst, err := rns.NewBasis(params.Q[:level+1])
	if err != nil {
		return nil, fmt.Errorf("ckks: moddown Q basis at level %d: %w", level, err)
	}
	c := rns.NewConv(src, dst)
	ev.modDownConv[level] = c
	return c, nil
}

func copyLimbs(dst, src *poly.Poly, limbs int) {
	for i := 0; i < limbs; i++ {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = src.IsNTT
}

func mulSignedScalar(rq *poly.Ring, dst, src *poly.Poly, k int64) {
	for i := 0; i < src.Limbs(); i++ {
		m := rq.Mod(i)
		var km uint64
		if k >= 0 {
			km = m.Reduce(uint64(k))
		} else {
			km = m.Neg(m.Reduce(uint64(-k)))
		}
		ks := m.ShoupPrecomp(km)
		m.MulShoupVec(dst.Coeffs[i], src.Coeffs[i], km, ks)
	}
	dst.IsNTT = src.IsNTT
}
