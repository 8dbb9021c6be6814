package ckks

import (
	"fmt"

	"crophe/internal/parallel"
	"crophe/internal/poly"
)

// RotateHoisted computes several rotations of one ciphertext while
// performing the expensive Decomp + ModUp only once (the Hoisting
// optimisation of Figure 8(b), from [2]/[7]): because the Galois
// automorphism σ_g acts coefficient-wise within every RNS limb, it
// commutes with digit decomposition and base conversion, so
//
//	KeySwitch(σ_g(a)) = Σ_d σ_g(ModUp([a]_{D_d})) ⊙ evk_g,d,
//
// and the per-digit ModUp results are shared across all requested
// rotation amounts. The shared digits are transformed to the NTT domain
// once, where σ_g is a slot permutation, so each rotation runs no forward
// transforms before ModDown: the graph workload.BabyRotations prices in
// RotHoisted mode. Returns a map from rotation amount to rotated
// ciphertext. Rotation amount 0 returns the input unchanged.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rotations []int) (map[int]*Ciphertext, error) {
	if ev.keys == nil {
		return nil, fmt.Errorf("ckks: RotateHoisted requires rotation keys")
	}
	rq := ev.params.RingQ()
	rqp := ev.params.RingQP()
	level := ct.Level

	// Shared Decomp + ModUp + NTT. The digits are read-only from here on.
	arena := getArena()
	defer arena.release()
	extQP := ev.extendedBasis(level)
	ext, err := ev.modUpNTT(ct.A, level, extQP, arena)
	if err != nil {
		return nil, err
	}

	// The rotations are independent pool tasks. Results are collected by
	// input position to keep assembly deterministic.
	results := make([]*Ciphertext, len(rotations))
	rotErrs := make([]error, len(rotations))
	parallel.For(len(rotations), func(ri int) {
		r := rotations[ri]
		if r == 0 {
			results[ri] = ct.CopyCt()
			return
		}
		key, err := ev.keys.RotKey(r)
		if err != nil {
			rotErrs[ri] = err
			return
		}
		if err := checkKeyDigits(key, level, ev.params.Alpha); err != nil {
			rotErrs[ri] = fmt.Errorf("rotation %d: %w", r, err)
			return
		}
		galois := rq.GaloisElement(r)

		rotArena := getArena()
		defer rotArena.release()
		acc0, acc1 := ev.keyInnerProduct(ext, extQP, rqp.AutomorphismNTTIndex(galois), key, rotArena)
		c0, c1, err := ev.modDownPair(acc0, acc1, extQP, level)
		if err != nil {
			rotErrs[ri] = err
			return
		}

		// Add σ_g(b), permuted in the NTT domain.
		bAuto := &poly.Poly{Coeffs: rotArena.rows(level+1, rq.N, false)}
		rq.AutomorphismNTT(bAuto, ct.B, galois)
		rq.Add(c0, c0, bAuto)

		results[ri] = &Ciphertext{B: c0, A: c1, Scale: ct.Scale, Level: level}
	})
	for _, err := range rotErrs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[int]*Ciphertext, len(rotations))
	for ri, r := range rotations {
		out[r] = results[ri]
	}
	return out, nil
}
