// Package boot implements the CKKS bootstrapping kernels the paper's
// workloads are built from: BSGS plaintext matrix–vector multiplication
// (Algorithm 1), the CoeffToSlot/SlotToCoeff homomorphic DFTs, Chebyshev
// polynomial evaluation for EvalMod. The BSGS baby steps execute the
// Figure 8 rotation plan (Min-KS, Hoisting, Hybrid) of workload.BabyPlan,
// the same plan the scheduler prices.
package boot

import (
	"fmt"
	"sort"

	"crophe/internal/ckks"
	"crophe/internal/workload"
)

// LinearTransform is an n×n plaintext matrix stored as its generalised
// diagonals, ready for BSGS evaluation on a ciphertext whose slots hold the
// input vector. n must equal the parameter slot count.
type LinearTransform struct {
	N1, N2 int // BSGS split, N1·N2 ≥ n with N1 baby steps
	// diags[d] is the d-th generalised diagonal: diags[d][j] = M[j][(j+d) mod n].
	// Only non-zero diagonals are stored.
	diags map[int][]complex128
	n     int
}

// NewLinearTransform extracts the diagonals of a dense matrix and picks a
// BSGS split n = n1·n2 with n1 ≈ √n (n1 chosen as a divisor power of two).
func NewLinearTransform(matrix [][]complex128) (*LinearTransform, error) {
	n := len(matrix)
	if n == 0 {
		return nil, fmt.Errorf("boot: empty matrix")
	}
	for i := range matrix {
		if len(matrix[i]) != n {
			return nil, fmt.Errorf("boot: matrix is not square (row %d has %d cols)", i, len(matrix[i]))
		}
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("boot: matrix size %d must be a power of two", n)
	}
	lt := &LinearTransform{diags: make(map[int][]complex128), n: n}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		nz := false
		for j := 0; j < n; j++ {
			diag[j] = matrix[j][(j+d)%n]
			if diag[j] != 0 {
				nz = true
			}
		}
		if nz {
			lt.diags[d] = diag
		}
	}
	lt.N1, lt.N2 = bsgsSplit(n)
	return lt, nil
}

// bsgsSplit picks n1 = 2^ceil(log2(√n)) and n2 = n/n1.
func bsgsSplit(n int) (n1, n2 int) {
	n1 = 1
	for n1*n1 < n {
		n1 <<= 1
	}
	return n1, n / n1
}

// Rotations returns every rotation amount the BSGS evaluation needs:
// baby steps 1..N1−1 and giant steps N1·j for j = 1..N2−1 — the key set
// the KeyGenerator must provide.
func (lt *LinearTransform) Rotations() []int {
	var rots []int
	for i := 1; i < lt.N1; i++ {
		rots = append(rots, i)
	}
	for j := 1; j < lt.N2; j++ {
		rots = append(rots, lt.N1*j)
	}
	return rots
}

// Diagonals returns the stored non-zero diagonal indices in ascending
// order — the deterministic iteration order for anything that accumulates
// across diagonals.
func (lt *LinearTransform) Diagonals() []int {
	out := make([]int, 0, len(lt.diags))
	for d := range lt.diags {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// rotateSlice circularly rotates v left by r.
func rotateSlice(v []complex128, r int) []complex128 {
	n := len(v)
	r = ((r % n) + n) % n
	out := make([]complex128, n)
	for i := range v {
		out[i] = v[(i+r)%n]
	}
	return out
}

// Apply multiplies the matrix with a plaintext vector — the reference the
// homomorphic evaluation is tested against.
func (lt *LinearTransform) Apply(v []complex128) []complex128 {
	out := make([]complex128, lt.n)
	// Accumulate diagonals in index order: complex addition rounds
	// non-associatively, so summing in map order would make the reference
	// vector (and every tolerance comparison against it) run-dependent.
	for _, d := range lt.Diagonals() {
		diag := lt.diags[d]
		rot := rotateSlice(v, d)
		for j := range out {
			out[j] += diag[j] * rot[j]
		}
	}
	return out
}

// Evaluate computes M × ct homomorphically with the BSGS method of
// Algorithm 1. The baby-step rotations follow the Figure 8 structure
// (mode, rHyb) of workload.BabyPlan; every mode computes the same result.
func (lt *LinearTransform) Evaluate(
	eval *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext,
	mode workload.RotMode, rHyb int,
) (*ckks.Ciphertext, error) {
	if lt.n != 1<<uint(slotsLog(lt.n)) {
		return nil, fmt.Errorf("boot: bad slot count %d", lt.n)
	}
	// Baby-step rotations ct_i for i = 0..N1-1 (Algorithm 1 lines 1–2).
	babies, err := babyRotations(eval, ct, lt.N1, mode, rHyb)
	if err != nil {
		return nil, err
	}

	var acc *ckks.Ciphertext // ct' (line 3)
	for j := 0; j < lt.N2; j++ {
		var inner *ckks.Ciphertext // r (line 5)
		for i := 0; i < lt.N1; i++ {
			d := lt.N1*j + i
			diag, ok := lt.diags[d%lt.n]
			if !ok {
				continue
			}
			// Rot_{-n1·j}(diag) aligns the diagonal with the un-rotated
			// giant step (line 7).
			shifted := rotateSlice(diag, -lt.N1*j)
			pt, err := enc.Encode(shifted, babies[i].Level)
			if err != nil {
				return nil, err
			}
			term, err := eval.MulPlain(babies[i], pt)
			if err != nil {
				return nil, err
			}
			if inner == nil {
				inner = term
			} else if inner, err = eval.Add(inner, term); err != nil {
				return nil, err
			}
		}
		if inner == nil {
			continue
		}
		// Giant-step rotation (line 8).
		if j > 0 {
			if inner, err = eval.Rotate(inner, lt.N1*j); err != nil {
				return nil, err
			}
		}
		if acc == nil {
			acc = inner
		} else if acc, err = eval.Add(acc, inner); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("boot: zero matrix")
	}
	// HRescale (line 9).
	return eval.Rescale(acc)
}

func slotsLog(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Identity returns the n×n identity transform, handy in tests.
func Identity(n int) *LinearTransform {
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		m[i][i] = 1
	}
	return mustLinearTransform(m, "identity")
}

// mustLinearTransform wraps NewLinearTransform for matrices that are
// square by construction. A failure here is a builder bug, not a
// data-dependent condition, so it panics with the matrix role and shape
// for context.
func mustLinearTransform(m [][]complex128, role string) *LinearTransform {
	lt, err := NewLinearTransform(m)
	if err != nil {
		panic(fmt.Sprintf("boot: %s transform (%d rows): %v", role, len(m), err))
	}
	return lt
}

// ScaleDiag scales every stored diagonal by c (used to fold constant
// factors like 1/N into the DFT matrices).
func (lt *LinearTransform) ScaleDiag(c complex128) {
	for _, d := range lt.diags {
		for j := range d {
			d[j] *= c
		}
	}
}

// NumDiagonals reports how many non-zero diagonals are stored.
func (lt *LinearTransform) NumDiagonals() int { return len(lt.diags) }
