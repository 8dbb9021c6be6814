package ckks

import (
	"bytes"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/parallel"
	"crophe/internal/poly"
	"crophe/internal/rns"
	"crophe/internal/workload"
)

// autoRoundTrip is σ_g of an NTT-form polynomial through the coefficient
// domain: INTT, coefficient automorphism, NTT.
func autoRoundTrip(r *poly.Ring, p *poly.Poly, g uint64) *poly.Poly {
	c := p.Copy()
	r.INTT(c)
	out := r.NewPoly(c.Limbs())
	r.Automorphism(out, c, g)
	r.NTT(out)
	return out
}

// refKeySwitch is the coefficient-domain key switch: per digit, ModUp in
// coefficient form, σ_g of the extended digit by the coefficient
// automorphism, a forward transform per limb, and a per-term reduced
// inner product. g = 1 is the plain key switch.
func refKeySwitch(t *testing.T, ev *Evaluator, x *poly.Poly, level int, key *SwitchingKey, g uint64) (*poly.Poly, *poly.Poly) {
	t.Helper()
	params := ev.params
	rq, rqp := params.RingQ(), params.RingQP()
	nQ := len(params.Q)
	var extQP []int
	for i := 0; i <= level; i++ {
		extQP = append(extQP, i)
	}
	for j := 0; j < params.Alpha; j++ {
		extQP = append(extQP, nQ+j)
	}
	xc := x.Copy()
	rq.INTT(xc)
	acc0, acc1 := make([][]uint64, len(extQP)), make([][]uint64, len(extQP))
	for i := range acc0 {
		acc0[i], acc1[i] = make([]uint64, rq.N), make([]uint64, rq.N)
	}
	for d, bounds := range rns.DigitBounds(level, params.Alpha) {
		lo, hi := bounds[0], bounds[1]
		conv, err := ev.modUpConvFor(level, d, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		full := rqp.NewPoly(rqp.K())
		var comp [][]uint64
		for _, qp := range extQP {
			if qp >= lo && qp < hi {
				copy(full.Coeffs[qp], xc.Coeffs[qp])
			} else {
				comp = append(comp, full.Coeffs[qp])
			}
		}
		conv.ConvertColumns(comp, xc.Coeffs[lo:hi])
		perm := rqp.NewPoly(rqp.K())
		rqp.Automorphism(perm, full, g)
		for k, qp := range extQP {
			row := perm.Coeffs[qp]
			rqp.Tables[qp].Forward(row)
			m := rqp.Mod(qp)
			m.MulAddVec(acc0[k], row, key.B[d].Coeffs[qp])
			m.MulAddVec(acc1[k], row, key.A[d].Coeffs[qp])
		}
	}
	c0, err := ev.modDown(acc0, extQP, level)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ev.modDown(acc1, extQP, level)
	if err != nil {
		t.Fatal(err)
	}
	return c0, c1
}

// refRotate is HRot through the coefficient domain: both halves are
// rotated by round trip, then a's rotation is key-switched.
func refRotate(t *testing.T, ev *Evaluator, ct *Ciphertext, g uint64, key *SwitchingKey) *Ciphertext {
	rq := ev.params.RingQ()
	c0, c1 := refKeySwitch(t, ev, autoRoundTrip(rq, ct.A, g), ct.Level, key, 1)
	rq.Add(c0, c0, autoRoundTrip(rq, ct.B, g))
	return &Ciphertext{B: c0, A: c1, Scale: ct.Scale, Level: ct.Level}
}

// refRotateHoisted is one hoisted rotation through the coefficient
// domain: σ_g is applied to the shared ModUp digits before their NTT.
func refRotateHoisted(t *testing.T, ev *Evaluator, ct *Ciphertext, g uint64, key *SwitchingKey) *Ciphertext {
	rq := ev.params.RingQ()
	c0, c1 := refKeySwitch(t, ev, ct.A, ct.Level, key, g)
	rq.Add(c0, c0, autoRoundTrip(rq, ct.B, g))
	return &Ciphertext{B: c0, A: c1, Scale: ct.Scale, Level: ct.Level}
}

// TestRotationsMatchCoefficientReferenceParallel pins RotateHoisted,
// Rotate, Conjugate and MulRelin to the coefficient-domain reference
// byte-for-byte (MarshalCiphertext), at pool size 1 and at the default
// pool size. Modular arithmetic is exact, so the NTT-domain permutation
// and the lazy inner product must not move a single bit.
func TestRotationsMatchCoefficientReferenceParallel(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	rotations := []int{1, 2, 5, -3}
	for _, workers := range []int{1, prev} {
		parallel.SetWorkers(workers)
		// α = 2 over 6 limbs gives three digits; level 4 leaves a short
		// last digit.
		tc := newTestContext(t, 9, 5, 2, rotations)
		rq := tc.params.RingQ()
		for _, level := range []int{tc.params.MaxLevel(), 4} {
			v := randomValues(tc.rng, tc.params.Slots())
			ct, err := EncryptAtLevel(tc.enc, tc.encr, v, level)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, got, want *Ciphertext) {
				t.Helper()
				if !bytes.Equal(MarshalCiphertext(got), MarshalCiphertext(want)) {
					t.Errorf("workers=%d level=%d %s: differs from the coefficient-domain reference", workers, level, what)
				}
			}
			hoisted, err := tc.eval.RotateHoisted(ct, rotations)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rotations {
				g := rq.GaloisElement(r)
				key, err := tc.keys.RotKey(r)
				if err != nil {
					t.Fatal(err)
				}
				same("RotateHoisted", hoisted[r], refRotateHoisted(t, tc.eval, ct, g, key))
				direct, err := tc.eval.Rotate(ct, r)
				if err != nil {
					t.Fatal(err)
				}
				same("Rotate", direct, refRotate(t, tc.eval, ct, g, key))
			}
			conj, err := tc.eval.Conjugate(ct)
			if err != nil {
				t.Fatal(err)
			}
			same("Conjugate", conj, refRotate(t, tc.eval, ct, rq.GaloisElementConjugate(), tc.keys.Conj))

			mul, err := tc.eval.MulRelin(ct, ct)
			if err != nil {
				t.Fatal(err)
			}
			d0, d1, d2 := rq.NewPoly(level+1), rq.NewPoly(level+1), rq.NewPoly(level+1)
			rq.MulHadamard(d0, ct.B, ct.B)
			rq.MulHadamard(d1, ct.A, ct.B)
			rq.MulAddHadamard(d1, ct.B, ct.A)
			rq.MulHadamard(d2, ct.A, ct.A)
			c0, c1 := refKeySwitch(t, tc.eval, d2, level, tc.keys.Relin, 1)
			rq.Add(d0, d0, c0)
			rq.Add(d1, d1, c1)
			same("MulRelin", mul, &Ciphertext{B: d0, A: d1, Scale: ct.Scale * ct.Scale, Level: level})
		}
	}
}

// graphTransformLimbs sums the limb counts of the forward and inverse NTT
// nodes of a workload graph.
func graphTransformLimbs(g *graph.Graph) (fwd, inv int64) {
	for _, n := range g.Nodes {
		limbs := int64(n.Out.Limbs) * int64(max(n.Out.Digits, 1))
		switch n.Kind {
		case graph.OpNTT:
			fwd += limbs
		case graph.OpINTT:
			inv += limbs
		}
	}
	return fwd, inv
}

// TestRotateHoistedNTTCountMatchesCostModel walks the baby-step plan of
// every Figure 8 mode (Rotate per unhoisted rotation, one RotateHoisted
// per hoisted step), counts the per-limb transforms it runs, and requires
// them to equal the NTT/INTT limb totals of the graph the scheduler
// prices for the same (level, α, n1, mode, r_Hyb). For Hoisting that is
// the Figure 8(b) count: (ℓ+1) INTT + β(ℓ+1+α) NTT shared, then 2α INTT
// + 2(ℓ+1) NTT per rotation.
func TestRotateHoistedNTTCountMatchesCostModel(t *testing.T) {
	const logN, levels, alpha, n1 = 9, 5, 2, 8
	tc := newTestContext(t, logN, levels, alpha, []int{1, 2, 3, 4, 5, 6, 7})
	modes := []struct {
		mode workload.RotMode
		rHyb int
	}{{workload.RotHoisted, 0}, {workload.RotMinKS, 0},
		{workload.RotHybrid, 2}, {workload.RotHybrid, 3}, {workload.RotHybrid, 4}}
	for _, m := range modes {
		for _, level := range []int{levels, 3} {
			v := randomValues(tc.rng, tc.params.Slots())
			ct, err := EncryptAtLevel(tc.enc, tc.encr, v, level)
			if err != nil {
				t.Fatal(err)
			}
			c := &nttTally{}
			tally.Store(c)
			babies := map[int]*Ciphertext{0: ct}
			for _, s := range workload.BabyPlan(n1, m.mode, m.rHyb) {
				if s.Hoisted {
					rotated, err := tc.eval.RotateHoisted(babies[s.From], s.Amounts)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range s.Amounts {
						babies[s.From+a] = rotated[a]
					}
					continue
				}
				for _, a := range s.Amounts {
					if babies[s.From+a], err = tc.eval.Rotate(babies[s.From], a); err != nil {
						t.Fatal(err)
					}
				}
			}
			tally.Store(nil)
			if len(babies) != n1 {
				t.Fatalf("%s r=%d: plan produced %d babies, want %d", m.mode, m.rHyb, len(babies), n1)
			}

			b := workload.NewBuilder(arch.ParamSet{LogN: logN, L: levels, Alpha: alpha})
			x := b.Input("x", level)
			b.BabyRotations(x, level, n1, m.mode, m.rHyb, "baby")
			wantFwd, wantInv := graphTransformLimbs(b.G)

			if m.mode == workload.RotHoisted {
				beta := int64(len(rns.DigitBounds(level, alpha)))
				l, a, r := int64(level+1), int64(alpha), int64(n1-1)
				if wantFwd != beta*(l+a)+2*l*r || wantInv != l+2*a*r {
					t.Fatalf("level %d: builder graph has %d NTT / %d INTT limbs; the Figure 8(b) count is %d / %d",
						level, wantFwd, wantInv, beta*(l+a)+2*l*r, l+2*a*r)
				}
			}
			if got := c.forward.Load(); got != wantFwd {
				t.Errorf("%s r=%d level %d: the rotations ran %d forward transforms; the priced graph has %d",
					m.mode, m.rHyb, level, got, wantFwd)
			}
			if got := c.inverse.Load(); got != wantInv {
				t.Errorf("%s r=%d level %d: the rotations ran %d inverse transforms; the priced graph has %d",
					m.mode, m.rHyb, level, got, wantInv)
			}
		}
	}
}
