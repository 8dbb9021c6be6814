package boot

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"crophe/internal/ckks"
	"crophe/internal/modmath"
	"crophe/internal/workload"
)

type testContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	sk     *ckks.SecretKey
	keys   *ckks.EvaluationKeySet
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	eval   *ckks.Evaluator
	rng    *rand.Rand
}

func newTestContext(t testing.TB, logN, levels, alpha int, rotations []int, sparse int) *testContext {
	t.Helper()
	params, err := ckks.TestParameters(logN, levels, alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := ckks.NewTestRand(7)
	kg := ckks.NewKeyGenerator(params, rng)
	var sk *ckks.SecretKey
	if sparse > 0 {
		sk = kg.GenSecretKeySparse(sparse)
	} else {
		sk = kg.GenSecretKey()
	}
	pk := kg.GenPublicKey(sk)
	keys := kg.GenEvaluationKeySet(sk, rotations)
	return &testContext{
		params: params,
		enc:    ckks.NewEncoder(params),
		sk:     sk, keys: keys,
		encr: ckks.NewEncryptor(params, pk, rng),
		decr: ckks.NewDecryptor(params, sk),
		eval: ckks.NewEvaluator(params, keys),
		rng:  rng,
	}
}

func randomReals(rng *rand.Rand, n int, scale float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((rng.Float64()*2-1)*scale, 0)
	}
	return v
}

func maxErr(got, want []complex128) float64 {
	var worst float64
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func TestBSGSSplit(t *testing.T) {
	cases := map[int][2]int{4: {2, 2}, 16: {4, 4}, 64: {8, 8}, 32: {8, 4}, 128: {16, 8}}
	for n, want := range cases {
		n1, n2 := bsgsSplit(n)
		if n1 != want[0] || n2 != want[1] {
			t.Errorf("bsgsSplit(%d) = %d,%d want %v", n, n1, n2, want)
		}
		if n1*n2 != n {
			t.Errorf("bsgsSplit(%d) does not factor", n)
		}
	}
}

func TestLinearTransformValidation(t *testing.T) {
	if _, err := NewLinearTransform(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := NewLinearTransform([][]complex128{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	bad := make([][]complex128, 3)
	for i := range bad {
		bad[i] = make([]complex128, 3)
	}
	if _, err := NewLinearTransform(bad); err == nil {
		t.Error("non-power-of-two size should fail")
	}
}

func TestLinearTransformApplyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64(), rng.Float64())
		}
	}
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64(), 0)
	}
	got := lt.Apply(v)
	for i := 0; i < n; i++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += m[i][j] * v[j]
		}
		if cmplx.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("Apply mismatch at %d", i)
		}
	}
}

func TestBSGSMatVecHomomorphic(t *testing.T) {
	tc := newTestContext(t, 5, 2, 1, nil, 0)
	slots := tc.params.Slots() // 16
	rng := rand.New(rand.NewSource(2))
	m := make([][]complex128, slots)
	for i := range m {
		m[i] = make([]complex128, slots)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()*2-1, 0)
		}
	}
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate keys with the needed rotations.
	tc = newTestContext(t, 5, 2, 1, lt.Rotations(), 0)

	v := randomReals(tc.rng, slots, 1)
	ct, err := ckks.EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	out, err := lt.Evaluate(tc.eval, tc.enc, ct, workload.RotHoisted, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := lt.Apply(v)
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("BSGS matvec error %g", e)
	}
}

func TestBSGSIdentityMatrix(t *testing.T) {
	tc := newTestContext(t, 5, 2, 1, nil, 0)
	slots := tc.params.Slots()
	lt := Identity(slots)
	tc = newTestContext(t, 5, 2, 1, lt.Rotations(), 0)
	v := randomReals(tc.rng, slots, 1)
	ct, _ := ckks.EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	out, err := lt.Evaluate(tc.eval, tc.enc, ct, workload.RotMinKS, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	if e := maxErr(got, v); e > 1e-2 {
		t.Fatalf("identity matvec error %g", e)
	}
}

// rotationModes are the three Figure 8 structures the boot tests run.
var rotationModes = []struct {
	mode workload.RotMode
	rHyb int
}{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}, {workload.RotHybrid, 2}}

func TestRotationStrategiesAgree(t *testing.T) {
	n1 := 4
	keys := map[int]bool{2: true}
	for _, m := range rotationModes {
		for _, k := range BabyKeys(n1, m.mode, m.rHyb) {
			keys[k] = true
		}
	}
	var rots []int
	for k := range keys {
		rots = append(rots, k)
	}
	tc := newTestContext(t, 5, 2, 1, rots, 0)
	v := randomReals(tc.rng, tc.params.Slots(), 1)
	ct, _ := ckks.EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())

	var baseline []*ckks.Ciphertext
	for _, m := range rotationModes {
		babies, err := babyRotations(tc.eval, ct, n1, m.mode, m.rHyb)
		if err != nil {
			t.Fatalf("%s: %v", m.mode, err)
		}
		if len(babies) != n1 {
			t.Fatalf("%s: %d rotations", m.mode, len(babies))
		}
		if baseline == nil {
			baseline = babies
			continue
		}
		for i := range babies {
			got := tc.enc.Decode(tc.decr.Decrypt(babies[i]))
			want := tc.enc.Decode(tc.decr.Decrypt(baseline[i]))
			if e := maxErr(got, want); e > 1e-2 {
				t.Fatalf("%s: baby rotation %d disagrees (err %g)", m.mode, i, e)
			}
		}
	}
	for _, r := range []int{0, -1} {
		if _, err := babyRotations(tc.eval, ct, n1, workload.RotHybrid, r); err == nil {
			t.Errorf("hybrid stride %d accepted", r)
		}
	}
}

func TestCountOpsFormulas(t *testing.T) {
	// §V-C: hybrid vs Min-KS saves ModUp/ModDown; vs Hoisting saves evks.
	// Key switches are the plan's rotations, evks its distinct amounts.
	n1 := 16
	type counts struct{ keySwitches, evks int }
	count := func(mode workload.RotMode, rHyb int) counts {
		c := counts{evks: len(BabyKeys(n1, mode, rHyb))}
		for _, s := range workload.BabyPlan(n1, mode, rHyb) {
			c.keySwitches += len(s.Amounts)
		}
		return c
	}
	minks := count(workload.RotMinKS, 0)
	hoist := count(workload.RotHoisted, 0)
	hyb := count(workload.RotHybrid, 4)

	if minks.evks != 1 || minks.keySwitches != n1-1 {
		t.Fatalf("min-ks counts %+v", minks)
	}
	if hoist.evks != n1-1 || hoist.keySwitches != n1-1 {
		t.Fatalf("hoisting counts %+v", hoist)
	}
	if hyb.keySwitches != n1-1 {
		t.Fatalf("hybrid counts %+v", hyb)
	}
	if hyb.evks <= minks.evks || hyb.evks >= hoist.evks {
		t.Fatalf("hybrid evk count %d not between %d and %d", hyb.evks, minks.evks, hoist.evks)
	}
	// Hybrid evk count formula: r_Hyb keys (stride + fine steps).
	if hyb.evks != 4 {
		t.Fatalf("hybrid evks = %d, want 4", hyb.evks)
	}
	// With n1 ≤ r_Hyb the stride is never taken, so its key is not needed.
	if got := BabyKeys(4, workload.RotHybrid, 4); len(got) != 3 {
		t.Fatalf("hybrid keys for n1 = r_Hyb = 4: %v, want 1..3", got)
	}
}

func TestFitChebyshevApproximatesSin(t *testing.T) {
	p := FitChebyshev(math.Sin, -3, 3, 31)
	for x := -3.0; x <= 3.0; x += 0.1 {
		if err := math.Abs(p.EvalFloat(x) - math.Sin(x)); err > 1e-9 {
			t.Fatalf("chebyshev fit error %g at %g", err, x)
		}
	}
}

func TestEvaluateChebyshevHomomorphic(t *testing.T) {
	// Approximate exp on [-1, 1] with degree 7 (depth 3 + norm + cmult).
	tc := newTestContext(t, 5, 6, 2, nil, 0)
	p := FitChebyshev(math.Exp, -1, 1, 7)
	v := randomReals(tc.rng, tc.params.Slots(), 1)
	ct, _ := ckks.EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	out, err := EvaluateChebyshev(tc.eval, p, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	for i := range v {
		want := math.Exp(real(v[i]))
		if e := math.Abs(real(got[i]) - want); e > 5e-2 {
			t.Fatalf("slot %d: exp(%g) = %g, got %g", i, real(v[i]), want, real(got[i]))
		}
	}
}

func TestEvalModPolyOnLatticePoints(t *testing.T) {
	// f(m + k·q) ≈ m for small m, |k| ≤ K.
	q := 32.0
	p := EvalModPoly(q, 4, 63)
	for k := -3; k <= 3; k++ {
		for _, m := range []float64{-0.5, -0.1, 0, 0.2, 0.5} {
			t1 := m + float64(k)*q
			got := p.EvalFloat(t1)
			// sine surrogate error is O(m³/q²)
			if e := math.Abs(got - q/(2*math.Pi)*math.Sin(2*math.Pi*m/q)); e > 1e-6 {
				t.Fatalf("eval mod poly off sine at t=%g: %g", t1, e)
			}
			if e := math.Abs(got - m); e > 5e-3 {
				t.Fatalf("eval mod at t=%g: got %g want %g", t1, got, m)
			}
		}
	}
}

func TestC2SThenS2CIsIdentity(t *testing.T) {
	// SlotToCoeff(CoeffToSlot(z)) = z in exact arithmetic: check the
	// plaintext matrices compose to the identity, and that for a slot
	// vector decoded from a *real* coefficient polynomial the extracted
	// halves are real.
	params, err := ckks.TestParameters(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2s := CoeffToSlotMatrices(params)
	s2c := SlotToCoeffMatrices(params)
	n := params.N()
	slots := params.Slots()
	rng := rand.New(rand.NewSource(3))

	// Random real coefficient vector → slot vector via decoding formula.
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	zeta := zetaPowers(n)
	rot := rotGroup(n)
	z := make([]complex128, slots)
	for j := 0; j < slots; j++ {
		for k := 0; k < n; k++ {
			z[j] += complex(a[k], 0) * zeta[(uint64(k)*rot[j])%uint64(2*n)]
		}
	}

	lo, hi := c2s.ApplyPlain(z)
	for k := 0; k < slots; k++ {
		if math.Abs(imag(lo[k])) > 1e-9 || math.Abs(imag(hi[k])) > 1e-9 {
			t.Fatalf("extracted halves not real at %d", k)
		}
		if math.Abs(real(lo[k])-a[k]) > 1e-9 {
			t.Fatalf("a_lo[%d] = %g want %g", k, real(lo[k]), a[k])
		}
		if math.Abs(real(hi[k])-a[k+slots]) > 1e-9 {
			t.Fatalf("a_hi[%d] = %g want %g", k, real(hi[k]), a[k+slots])
		}
	}
	back := s2c.ApplyPlain(lo, hi)
	if e := maxErr(back, z); e > 1e-9 {
		t.Fatalf("S2C∘C2S identity error %g", e)
	}
}

func TestModRaisePreservesMessage(t *testing.T) {
	// The q0·I overflow lives in COEFFICIENT space: decrypting the raised
	// ciphertext and reading coefficients must give the original
	// coefficients plus integer multiples of q0 (plus encryption noise).
	tc := newTestContext(t, 5, 6, 2, nil, 8)
	b := NewBootstrapper(tc.params, tc.enc, tc.eval, BootstrapConfig{K: 8, SineDeg: 31, Rot: workload.RotHoisted})
	v := randomReals(tc.rng, tc.params.Slots(), 0.5)
	pt, err := tc.enc.Encode(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	raised, err := b.ModRaise(ct, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if raised.Level != tc.params.MaxLevel() {
		t.Fatal("level not raised")
	}

	rq := tc.params.RingQ()
	q0 := float64(tc.params.Q[0])
	dec := tc.decr.Decrypt(raised)
	raw := dec.Value.Copy()
	rq.INTT(raw)
	orig := pt.Value.Copy()
	rq.INTT(orig)

	basis := tc.params.QAtLevel(raised.Level)
	residues := make([]uint64, raised.Level+1)
	maxI := 0.0
	for j := 0; j < rq.N; j++ {
		for i := range residues {
			residues[i] = raw.Coeffs[i][j]
		}
		c, _ := new(big.Float).SetInt(basis.ReconstructCentered(residues)).Float64()
		want := float64(modmath.CenteredLift(orig.Coeffs[0][j], tc.params.Q[0]))
		diff := c - want
		k := math.Round(diff / q0)
		if e := math.Abs(diff - k*q0); e > q0/1e6 {
			t.Fatalf("coeff %d: residual %g not ≡ 0 mod q0 (diff %g)", j, e, diff)
		}
		if math.Abs(k) > maxI {
			maxI = math.Abs(k)
		}
	}
	if maxI > float64(b.K) {
		t.Fatalf("overflow |I| = %g exceeds bound K = %d", maxI, b.K)
	}
	t.Logf("max overflow |I| = %g (bound %d)", maxI, b.K)
}

func TestModRaiseErrors(t *testing.T) {
	tc := newTestContext(t, 5, 3, 1, nil, 8)
	b := NewBootstrapper(tc.params, tc.enc, tc.eval, BootstrapConfig{Rot: workload.RotHoisted})
	v := randomReals(tc.rng, 4, 0.1)
	ct, _ := ckks.EncryptAtLevel(tc.enc, tc.encr, v, 1)
	if _, err := b.ModRaise(ct, 2); err == nil {
		t.Error("non-level-0 input should fail")
	}
	ct0, _ := ckks.EncryptAtLevel(tc.enc, tc.encr, v, 0)
	if _, err := b.ModRaise(ct0, 0); err == nil {
		t.Error("target level 0 should fail")
	}
}

func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap e2e is slow")
	}
	// Small ring, enough levels for C2S(1) + EvalMod(log₂63 + 2) + S2C(1).
	logN, levels := 4, 11
	params, err := ckks.TestParameters(logN, levels, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := ckks.NewTestRand(11)
	kg := ckks.NewKeyGenerator(params, rng)
	sk := kg.GenSecretKeySparse(4)
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)

	cfg := BootstrapConfig{K: 4, SineDeg: 63, Rot: workload.RotHoisted}
	// Gather rotations before generating keys.
	tmpEval := ckks.NewEvaluator(params, nil)
	b0 := NewBootstrapper(params, enc, tmpEval, cfg)
	keys := kg.GenEvaluationKeySet(sk, b0.Rotations())
	eval := ckks.NewEvaluator(params, keys)
	b := NewBootstrapper(params, enc, eval, cfg)

	encryptor := ckks.NewEncryptor(params, pk, rng)
	decryptor := ckks.NewDecryptor(params, sk)

	v := randomReals(rng, params.Slots(), 0.3)
	ct, err := ckks.EncryptAtLevel(enc, encryptor, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level <= 0 {
		t.Fatalf("bootstrap output at level %d", out.Level)
	}
	got := enc.Decode(decryptor.Decrypt(out))
	// The sine surrogate and the small ring give limited precision —
	// what matters functionally is that the message survives the refresh.
	if e := maxErr(got, v); e > 0.1 {
		t.Fatalf("bootstrap error %g", e)
	}
	t.Logf("bootstrap precision: max error %.3g, output level %d", maxErr(got, v), out.Level)
}
