package boot

import (
	"fmt"

	"crophe/internal/ckks"
	"crophe/internal/workload"
)

// babyRotations returns [ct, Rot_1(ct), ..., Rot_{n1−1}(ct)] by walking
// the Figure 8 plan of workload.BabyPlan, the graph the scheduler prices:
// Rotate for each rotation of an unhoisted step, one RotateHoisted
// (Decomp/ModUp computed once, §V-C) per hoisted step. All modes compute
// the same ciphertexts.
func babyRotations(eval *ckks.Evaluator, ct *ckks.Ciphertext, n1 int, mode workload.RotMode, rHyb int) ([]*ckks.Ciphertext, error) {
	if mode == workload.RotHybrid && rHyb < 1 {
		return nil, fmt.Errorf("boot: hybrid stride %d must be ≥ 1", rHyb)
	}
	out := make([]*ckks.Ciphertext, n1)
	out[0] = ct
	for _, s := range workload.BabyPlan(n1, mode, rHyb) {
		if s.Hoisted {
			rotated, err := eval.RotateHoisted(out[s.From], s.Amounts)
			if err != nil {
				return nil, fmt.Errorf("boot: %s hoisted rotations of baby %d: %w", mode, s.From, err)
			}
			for _, a := range s.Amounts {
				out[s.From+a] = rotated[a]
			}
			continue
		}
		for _, a := range s.Amounts {
			r, err := eval.Rotate(out[s.From], a)
			if err != nil {
				return nil, fmt.Errorf("boot: %s rotation of baby %d by %d: %w", mode, s.From, a, err)
			}
			out[s.From+a] = r
		}
	}
	return out, nil
}

// BabyKeys returns the distinct rotation amounts of the baby-step plan
// for (n1, mode, rHyb), in plan order: the evks babyRotations needs.
func BabyKeys(n1 int, mode workload.RotMode, rHyb int) []int {
	seen := map[int]bool{}
	var keys []int
	for _, s := range workload.BabyPlan(n1, mode, rHyb) {
		for _, a := range s.Amounts {
			if !seen[a] {
				seen[a] = true
				keys = append(keys, a)
			}
		}
	}
	return keys
}
