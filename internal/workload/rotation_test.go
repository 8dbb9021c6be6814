package workload

import "testing"

// TestBabyPlanProperties checks the Figure 8 plan for every mode over
// n1 in 1..33 and r_Hyb in {1, 2, 3, 4, 8}: each baby 1..n1−1 is made
// exactly once from a baby made before it, Min-KS uses only unit
// rotations, Hoisting is one hoisted step from baby 0, and Hybrid needs
// at most r_Hyb distinct evks.
func TestBabyPlanProperties(t *testing.T) {
	for n1 := 1; n1 <= 33; n1++ {
		for _, r := range []int{1, 2, 3, 4, 8} {
			for _, mode := range []RotMode{RotMinKS, RotHoisted, RotHybrid} {
				plan := BabyPlan(n1, mode, r)
				made := map[int]bool{0: true}
				amounts := map[int]bool{}
				for _, s := range plan {
					if !made[s.From] {
						t.Fatalf("%s n1=%d r=%d: step from baby %d before it is made", mode, n1, r, s.From)
					}
					for _, a := range s.Amounts {
						to := s.From + a
						if a < 1 || to >= n1 || made[to] {
							t.Fatalf("%s n1=%d r=%d: baby %d made twice or out of range (from %d by %d)",
								mode, n1, r, to, s.From, a)
						}
						made[to] = true
						amounts[a] = true
					}
				}
				if len(made) != n1 {
					t.Fatalf("%s n1=%d r=%d: plan makes %d of %d babies", mode, n1, r, len(made), n1)
				}
				switch mode {
				case RotMinKS:
					if n1 > 1 && (len(amounts) != 1 || !amounts[1]) {
						t.Fatalf("min-ks n1=%d uses amounts %v", n1, amounts)
					}
				case RotHoisted:
					if n1 > 1 && (len(plan) != 1 || plan[0].From != 0 || !plan[0].Hoisted) {
						t.Fatalf("hoisting n1=%d plan %+v", n1, plan)
					}
				case RotHybrid:
					if len(amounts) > r {
						t.Fatalf("hybrid n1=%d r=%d uses %d distinct amounts", n1, r, len(amounts))
					}
				}
			}
		}
	}
}
