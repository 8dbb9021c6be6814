package workload

import "fmt"

// RotMode selects the baby-step rotation structure of Figure 8. The zero
// value is RotMinKS.
type RotMode int

// Rotation structure variants.
const (
	RotMinKS RotMode = iota
	RotHoisted
	RotHybrid
)

// String implements fmt.Stringer.
func (m RotMode) String() string {
	switch m {
	case RotMinKS:
		return "min-ks"
	case RotHoisted:
		return "hoisting"
	case RotHybrid:
		return "hybrid"
	}
	return "?"
}

// BabyStep is one step of a baby-step rotation plan: it rotates baby
// From by each of Amounts, producing baby From+a for amount a. A hoisted
// step shares one Decomp/ModUp of baby From among its rotations; an
// unhoisted step key-switches each rotation on its own.
type BabyStep struct {
	From    int
	Amounts []int
	Hoisted bool
}

// BabyPlan returns the ordered steps that produce the BSGS baby steps
// Rot_1(x)..Rot_{n1−1}(x) from baby 0 = x (Algorithm 1 line 2) with the
// rotation structure of Figure 8. Every step's source is baby 0 or a baby
// an earlier step produced; the plan is empty for n1 ≤ 1.
//
//   - RotMinKS (ARK): n1−1 dependent unit rotations, one evk.
//   - RotHoisted (MAD): one hoisted step rotating baby 0 by 1..n1−1,
//     n1−1 distinct evks.
//   - RotHybrid (CROPHE): coarse unit steps of stride rHyb, each coarse
//     result then rotated by 1..rHyb−1 in one hoisted step; at most rHyb
//     distinct evks. rHyb < 1 is taken as 1.
//
// workload.Builder.BabyRotations prices this plan and boot executes it
// on ciphertexts.
func BabyPlan(n1 int, mode RotMode, rHyb int) []BabyStep {
	var plan []BabyStep
	switch mode {
	case RotMinKS:
		for i := 1; i < n1; i++ {
			plan = append(plan, BabyStep{From: i - 1, Amounts: []int{1}})
		}
	case RotHoisted:
		if n1 > 1 {
			plan = append(plan, BabyStep{From: 0, Amounts: span(1, n1), Hoisted: true})
		}
	case RotHybrid:
		rHyb = max(rHyb, 1)
		for base := 0; base < n1; base += rHyb {
			if base > 0 {
				plan = append(plan, BabyStep{From: base - rHyb, Amounts: []int{rHyb}})
			}
			if fine := span(1, min(rHyb, n1-base)); len(fine) > 0 {
				plan = append(plan, BabyStep{From: base, Amounts: fine, Hoisted: true})
			}
		}
	default:
		panic(fmt.Sprintf("workload: unknown rotation mode %d", int(mode)))
	}
	return plan
}

// span returns lo, lo+1, ..., hi−1.
func span(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}
