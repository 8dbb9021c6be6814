package boot

import (
	"fmt"

	"crophe/internal/ckks"
	"crophe/internal/modmath"
	"crophe/internal/poly"
	"crophe/internal/workload"
)

// Bootstrapper refreshes an exhausted (level-0) ciphertext back to a high
// level with the sparse-packed pipeline the paper's bootstrapping workload
// uses: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.
type Bootstrapper struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	eval   *ckks.Evaluator

	c2s     *CoeffToSlot
	s2c     *SlotToCoeff
	evalMod *ChebyshevPoly

	// K bounds the ModRaise overflow polynomial |I| ≤ K; it must match
	// the secret's sparsity.
	K int
	// Rot and RHyb select the Figure 8 baby-step rotation structure of
	// the BSGS transforms inside C2S/S2C (workload.BabyPlan).
	Rot  workload.RotMode
	RHyb int
}

// BootstrapConfig tunes the bootstrapper.
type BootstrapConfig struct {
	K       int // overflow bound (default 8)
	SineDeg int // Chebyshev degree for EvalMod (default 63)
	// Rot and RHyb select the baby-step rotation structure; the zero
	// value is Min-KS (workload.RotMinKS). RHyb is read in hybrid mode
	// only and must then be ≥ 1.
	Rot  workload.RotMode
	RHyb int
}

// NewBootstrapper precomputes the DFT matrices and the EvalMod polynomial.
func NewBootstrapper(params *ckks.Parameters, enc *ckks.Encoder, eval *ckks.Evaluator, cfg BootstrapConfig) *Bootstrapper {
	if cfg.K == 0 {
		cfg.K = 8
	}
	if cfg.SineDeg == 0 {
		cfg.SineDeg = 63
	}
	// EvalMod operates on t = m + c·I with c = q_0/Δ; approximate
	// f(t) = (c/2π)·sin(2π·t/c) on [−(K+1)·c, (K+1)·c].
	c := float64(params.Q[0]) / params.Scale
	return &Bootstrapper{
		params:  params,
		enc:     enc,
		eval:    eval,
		c2s:     CoeffToSlotMatrices(params),
		s2c:     SlotToCoeffMatrices(params),
		evalMod: EvalModPoly(c, cfg.K+1, cfg.SineDeg),
		K:       cfg.K,
		Rot:     cfg.Rot,
		RHyb:    cfg.RHyb,
	}
}

// Rotations returns every rotation amount the pipeline needs, so callers
// can generate the key set up front.
func (b *Bootstrapper) Rotations() []int {
	seen := map[int]bool{}
	var out []int
	add := func(rs []int) {
		for _, r := range rs {
			if r != 0 && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	add(b.c2s.Rotations())
	add(b.s2c.Rotations())
	add(BabyKeys(b.c2s.Lo.M1.N1, b.Rot, b.RHyb))
	add(BabyKeys(b.s2c.F1.N1, b.Rot, b.RHyb))
	return out
}

// ModRaise reinterprets a level-0 ciphertext at the target level: the
// coefficients (centered mod q_0) are lifted into every limb. The
// underlying plaintext becomes Δ·m + q_0·I(X) with a small overflow
// polynomial I.
func (b *Bootstrapper) ModRaise(ct *ckks.Ciphertext, targetLevel int) (*ckks.Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fmt.Errorf("boot: ModRaise expects a level-0 ciphertext, got level %d", ct.Level)
	}
	if targetLevel <= 0 || targetLevel > b.params.MaxLevel() {
		return nil, fmt.Errorf("boot: target level %d out of range", targetLevel)
	}
	out := &ckks.Ciphertext{
		B:     raisePoly(b.params, ct.B, targetLevel),
		A:     raisePoly(b.params, ct.A, targetLevel),
		Scale: ct.Scale,
		Level: targetLevel,
	}
	return out, nil
}

func raisePoly(params *ckks.Parameters, p *poly.Poly, targetLevel int) *poly.Poly {
	rq := params.RingQ()
	src := p.Copy()
	rq.INTT(src)
	q0 := rq.Mod(0).Q
	out := rq.NewPoly(targetLevel + 1)
	n := rq.N
	for j := 0; j < n; j++ {
		v := modmath.CenteredLift(src.Coeffs[0][j], q0)
		for i := 0; i <= targetLevel; i++ {
			out.Coeffs[i][j] = modmath.FromCentered(v, rq.Mod(i).Q)
		}
	}
	rq.NTT(out)
	return out
}

// Bootstrap runs the full pipeline. The input must be at level 0 with
// slot magnitudes well below c/2π (sparse-packed regime); the output is a
// refreshed ciphertext whose level is what remains after the pipeline's
// own multiplicative budget.
func (b *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	raised, err := b.ModRaise(ct, b.params.MaxLevel())
	if err != nil {
		return nil, err
	}
	// CoeffToSlot: the two real coefficient halves (values t = m_coeff +
	// c·I) land in the slots of two ciphertexts.
	lo, hi, err := b.c2s.Evaluate(b.eval, b.enc, raised, b.Rot, b.RHyb)
	if err != nil {
		return nil, fmt.Errorf("boot: CoeffToSlot: %w", err)
	}
	// EvalMod: remove the c·I component with the sine surrogate,
	// slot-wise on each real-valued half.
	if lo, err = EvaluateChebyshev(b.eval, b.evalMod, lo); err != nil {
		return nil, fmt.Errorf("boot: EvalMod(lo): %w", err)
	}
	if hi, err = EvaluateChebyshev(b.eval, b.evalMod, hi); err != nil {
		return nil, fmt.Errorf("boot: EvalMod(hi): %w", err)
	}
	// SlotToCoeff: back to the slot encoding of the message.
	out, err := b.s2c.Evaluate(b.eval, b.enc, lo, hi, b.Rot, b.RHyb)
	if err != nil {
		return nil, fmt.Errorf("boot: SlotToCoeff: %w", err)
	}
	return out, nil
}

// LevelBudget reports how many levels one bootstrap consumes with the
// current configuration: one per DFT stage (each BSGS ends in a rescale)
// plus the EvalMod depth (normalisation, basis recursion, coefficient
// multiply).
func (b *Bootstrapper) LevelBudget() int {
	d := b.evalMod.Degree()
	depth := 0
	for v := d; v > 1; v >>= 1 {
		depth++
	}
	return 1 /* C2S */ + 1 /* S2C */ + depth + 2 /* EvalMod norm + cmult */
}
