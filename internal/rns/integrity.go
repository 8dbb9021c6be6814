package rns

import (
	"math/bits"
	"sync"

	"crophe/internal/integrity"
	"crophe/internal/modmath"
	"crophe/internal/parallel"
)

// ABFT verification of the BConv matrix multiply. ConvertColumns computes
//
//	dst[j][col] = Σ_i v_i[col] · M[j][i]  (mod d_j),   M[j][i] = Ĉ_i mod d_j,
//
// with v_i = x_i·(Ĉ_i)^{-1} mod c_i staged canonically. Column-summing
// both sides gives the linear check the verifier runs per target limb:
//
//	Σ_col dst[j][col] ≡ Σ_i M[j][i] · (S_i mod d_j)  (mod d_j),
//
// where S_i = Σ_col v_i[col] is the integer (128-bit) sum of staging row
// i, accumulated for free while the rows are produced. The right side is
// O(|D|·|C|) scalar work — negligible next to the O(|D|·|C|·n) multiply —
// and any single corrupted word in a dst row shifts that row's column
// sum by a nonzero delta mod the odd prime d_j, so single-bit flips are
// detected with certainty. (Like any output-side ABFT, corruption of the
// staging rows between summation and use is outside the check's scope;
// the recovery protocol's recompute replays the whole staging pass from
// src, which is untouched.)

// ConvertColumnsChecked is ConvertColumns under the detect → bounded
// recompute → escalate protocol. On persistent mismatch it returns the
// checker's typed *integrity.Error (kernel "rns.ConvertColumns") and
// leaves dst unspecified; src is never modified, so recompute is a pure
// replay.
func (c *Conv) ConvertColumnsChecked(dst, src [][]uint64, ck *integrity.Checker) error {
	if len(src) != c.Src.K() || len(dst) != c.Dst.K() {
		panic("rns: ConvertColumnsChecked limb mismatch")
	}
	k := c.Src.K()
	sHi := make([]uint64, k)
	sLo := make([]uint64, k)
	for attempt := 1; ; attempt++ {
		for i := range sHi {
			sHi[i], sLo[i] = 0, 0
		}
		c.convertColumnsSum(dst, src, sHi, sLo)
		for j := range dst {
			ck.Corrupt(dst[j])
		}
		ck.Checked()
		ok := true
		for j, md := range c.Dst.Mods {
			row := c.cHatModD[j]
			var want uint64
			for i := 0; i < k; i++ {
				si := md.Reduce128(sHi[i]%md.Q, sLo[i])
				want = md.Add(want, md.Mul(si, row[i]))
			}
			if md.SumModVec(dst[j]) != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		ck.Detected()
		if attempt > integrity.DefaultMaxRecompute {
			return ck.Escalate("rns.ConvertColumns", attempt)
		}
		ck.Recomputed()
	}
}

// convertColumnsSum is ConvertColumns with the staging-row sums fused
// in: it writes the converted limb matrix into dst exactly like the
// unchecked kernel and accumulates S_i = Σ_col v_i[col] as raw 128-bit
// (sHi[i], sLo[i]) pairs across the worker chunks. Kept as a duplicate
// of ConvertColumns so the unchecked hot path cannot regress.
func (c *Conv) convertColumnsSum(dst, src [][]uint64, sHi, sLo []uint64) {
	n := len(src[0])
	k := c.Src.K()
	var mu sync.Mutex
	parallel.ForChunk(n, func(lo, hi int) {
		vp := c.getScratch()
		v := *vp
		locHi := make([]uint64, k)
		locLo := make([]uint64, k)
		for b := lo; b < hi; b += convBlock {
			be := b + convBlock
			if be > hi {
				be = hi
			}
			w := be - b
			for i, m := range c.Src.Mods {
				m.MulShoupVec(v[i*convBlock:i*convBlock+w], src[i][b:be], c.cHatInv[i], c.cHatInvShoup[i])
				h, l := modmath.SumVec(v[i*convBlock : i*convBlock+w])
				var cy uint64
				locLo[i], cy = bits.Add64(locLo[i], l, 0)
				locHi[i] += h + cy
			}
			for j, md := range c.Dst.Mods {
				row := c.cHatModD[j]
				rowShoup := c.cHatModDShoup[j]
				d := dst[j][b:be]
				for x := range d {
					d[x] = 0
				}
				for i := range c.Src.Mods {
					md.MulShoupAccLazyVec(d, v[i*convBlock:i*convBlock+w], row[i], rowShoup[i])
				}
				md.CorrectLazyVec(d)
			}
		}
		c.scratchPool.Put(vp)
		mu.Lock()
		for i := 0; i < k; i++ {
			var cy uint64
			sLo[i], cy = bits.Add64(sLo[i], locLo[i], 0)
			sHi[i] += locHi[i] + cy
		}
		mu.Unlock()
	})
}
