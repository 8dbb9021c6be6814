package ntt

import (
	"sync"

	"crophe/internal/integrity"
	"crophe/internal/modmath"
	"crophe/internal/parallel"
)

// ABFT integrity layer: algorithm-based checksums for the negacyclic
// transforms, with the detect → bounded-recompute → escalate policy
// supplied by internal/integrity.
//
// The check math. The forward transform evaluates a(X) at the N odd
// powers p_k = ψ^{2k+1}. Because Σ_k p_k^j vanishes for every j except
// j ≡ 0 (mod N), the plain output sum collapses to Σ_k y_k = N·a_0 —
// a one-multiply identity, but blind to most input positions. The
// weighted (Jou–Abraham-style) checksum fixes that: with
//
//	w_k = (2/N) · p_k / (p_k − 1)
//
// the geometric telescope Σ_t p_k^t = −2/(p_k − 1) (using p_k^N = −1)
// gives Σ_k w_k·p_k^j = 1 for EVERY j in [0, N), hence
//
//	Σ_k w_k·y_k ≡ Σ_j a_j  (mod q).
//
// Every weight is non-zero and every p_k ≠ 1 (2k+1 is odd, ψ has order
// 2N), so the weights exist and any single corrupted word — input,
// intermediate, or output — shifts the two sides apart. A single bit
// flip changes a word by ±2^b, never ≡ 0 mod an odd q, so single-event
// upsets are detected with certainty, not probabilistically.
//
// The same identity checks both directions: the coefficient-domain
// residue checksum of a row is its plain mod-q sum, the NTT-domain
// checksum is the weighted sum, and a correct transform maps one to the
// other exactly. The four-step path additionally exposes the cheap
// N·a_0 identity fused into its correction sweep, which is how the
// opt-in WithIntegrity mode stays under the ≤3% bench-gated overhead.

// checkWeights is the lazily built weight table: wStd in standard
// (natural) evaluation order for the four-step transform, wBR in the
// radix-2 kernel's bit-reversed output order (wBR[i] = wStd[brv(i)]).
type checkWeights struct {
	wStd, wStdShoup []uint64
	wBR, wBRShoup   []uint64
}

// checkInit builds the weight table on first checked use. Cost: ~4N
// multiplies and one batched inversion (Montgomery's trick folds the N
// inversions of (p_k − 1) into prefix products around a single Inv).
func (t *Table) checkInit() {
	m := t.M
	n := t.N
	cw := &checkWeights{
		wStd:      make([]uint64, n),
		wStdShoup: make([]uint64, n),
		wBR:       make([]uint64, n),
		wBRShoup:  make([]uint64, n),
	}
	// ψ = powers[1] lives at the bit-reversed slot brv(1) = n/2.
	psi := t.psiBR[n>>1]
	omega := m.Mul(psi, psi)

	// p_k = ψ^{2k+1} and d_k = p_k − 1, then batch-invert the d's.
	p := make([]uint64, n)
	d := make([]uint64, n)
	prefix := make([]uint64, n)
	pk := psi
	acc := uint64(1)
	for k := 0; k < n; k++ {
		p[k] = pk
		d[k] = m.Sub(pk, 1)
		acc = m.Mul(acc, d[k])
		prefix[k] = acc
		pk = m.Mul(pk, omega)
	}
	inv := m.Inv(acc)
	twoOverN := m.Add(t.nInv, t.nInv)
	for k := n - 1; k >= 0; k-- {
		var dInv uint64
		if k == 0 {
			dInv = inv
		} else {
			dInv = m.Mul(inv, prefix[k-1])
			inv = m.Mul(inv, d[k])
		}
		cw.wStd[k] = m.Mul(twoOverN, m.Mul(p[k], dInv))
		cw.wStdShoup[k] = m.ShoupPrecomp(cw.wStd[k])
	}
	logN := log2(t.N)
	for i := 0; i < n; i++ {
		k := int(bitReverse(uint(i), logN))
		cw.wBR[i] = cw.wStd[k]
		cw.wBRShoup[i] = cw.wStdShoup[k]
	}
	t.check = cw
}

func (t *Table) weights() *checkWeights {
	t.checkOnce.Do(t.checkInit)
	return t.check
}

// CoeffChecksum is the residue checksum of a coefficient-domain row:
// its plain mod-q word sum. Carried alongside limb-major buffers by the
// integrity mode.
func (t *Table) CoeffChecksum(a []uint64) uint64 { return t.M.SumModVec(a) }

// NTTChecksum is the residue checksum of an NTT-domain row in the
// radix-2 kernel's bit-reversed layout: the weighted sum Σ w_i·y_i. A
// correct forward transform maps CoeffChecksum to NTTChecksum exactly.
func (t *Table) NTTChecksum(y []uint64) uint64 {
	cw := t.weights()
	return t.M.DotShoupVec(y, cw.wBR, cw.wBRShoup)
}

// NTTChecksumStandard is NTTChecksum for standard-order NTT data (the
// four-step transform's layout).
func (t *Table) NTTChecksumStandard(y []uint64) uint64 {
	cw := t.weights()
	return t.M.DotShoupVec(y, cw.wStd, cw.wStdShoup)
}

// scratchPool recycles the recompute scratch rows of the checked
// in-place transforms, keyed per table (rows have the table's degree).
var scratchPool sync.Pool // *[]uint64

func getScratch(n int) *[]uint64 {
	if p, ok := scratchPool.Get().(*[]uint64); ok && len(*p) >= n {
		return p
	}
	s := make([]uint64, n)
	return &s
}

// ForwardChecked is Forward under the integrity protocol: the input row
// is saved to scratch (fused with its checksum), transformed, and the
// output's weighted checksum verified against the input's plain one.
// On mismatch the transform replays from scratch up to the checker's
// recompute bound; a persistent mismatch restores the input and
// escalates. On success it returns the NTT-domain checksum of the
// output, for callers carrying per-limb checksums downstream.
func (t *Table) ForwardChecked(a []uint64, c *integrity.Checker) (uint64, error) {
	sp := getScratch(t.N)
	defer scratchPool.Put(sp)
	scratch := (*sp)[:t.N]
	want := t.M.Reduce128(modmath.CopySumVec(scratch, a))
	for attempt := 1; ; attempt++ {
		t.Forward(a)
		c.Corrupt(a)
		c.Checked()
		if got := t.NTTChecksum(a); got == want {
			return got, nil
		}
		c.Detected()
		if attempt > integrity.DefaultMaxRecompute {
			copy(a, scratch)
			return 0, c.Escalate("ntt.Forward", attempt)
		}
		copy(a, scratch)
		c.Recomputed()
	}
}

// InverseChecked is Inverse under the integrity protocol: the
// NTT-domain input's weighted checksum is the reference, and the
// coefficient-domain output's plain checksum must land on it. Returns
// the coefficient-domain checksum on success.
func (t *Table) InverseChecked(a []uint64, c *integrity.Checker) (uint64, error) {
	sp := getScratch(t.N)
	defer scratchPool.Put(sp)
	scratch := (*sp)[:t.N]
	copy(scratch, a)
	want := t.NTTChecksum(scratch)
	for attempt := 1; ; attempt++ {
		t.Inverse(a)
		c.Corrupt(a)
		c.Checked()
		if got := t.CoeffChecksum(a); got == want {
			return got, nil
		}
		c.Detected()
		if attempt > integrity.DefaultMaxRecompute {
			copy(a, scratch)
			return 0, c.Escalate("ntt.Inverse", attempt)
		}
		copy(a, scratch)
		c.Recomputed()
	}
}

// BatchForwardChecked is BatchForward under the integrity protocol,
// verifying every limb row across the worker pool. It returns the
// per-limb NTT-domain checksums; if any limb escalates, the first
// escalation (by limb index, deterministically) is returned and the
// remaining results are invalid.
func BatchForwardChecked(tables []*Table, rows [][]uint64, c *integrity.Checker) ([]uint64, error) {
	if len(tables) != len(rows) {
		panic("ntt: BatchForwardChecked limb count mismatch")
	}
	sums := make([]uint64, len(rows))
	errs := make([]error, len(rows))
	parallel.ForChunk(len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i], errs[i] = tables[i].ForwardChecked(rows[i], c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// BatchInverseChecked is BatchInverse under the integrity protocol.
func BatchInverseChecked(tables []*Table, rows [][]uint64, c *integrity.Checker) ([]uint64, error) {
	if len(tables) != len(rows) {
		panic("ntt: BatchInverseChecked limb count mismatch")
	}
	sums := make([]uint64, len(rows))
	errs := make([]error, len(rows))
	parallel.ForChunk(len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i], errs[i] = tables[i].InverseChecked(rows[i], c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// ForwardChecked is the four-step forward transform in WithIntegrity
// mode — the bench-gated path. The output residue checksum is fused
// into the existing 4q-correction sweep (ReduceFourQSumVec), and the
// verification identity is the free one the sum already satisfies:
// Σ_k y_k ≡ N·a_0 (mod q). That catches any single corrupted output
// word with certainty (bit-flip deltas are never ≡ 0 mod odd q);
// corruption of the input row at rest is the consumer-side check's job
// (verify a's CoeffChecksum against its carried value before calling).
// dst must not alias a — the input row is the recompute scratch.
func (fs *FourStep) ForwardChecked(dst, a []uint64, c *integrity.Checker) (uint64, error) {
	if &dst[0] == &a[0] {
		panic("ntt: FourStep.ForwardChecked dst must not alias a (input is the recompute scratch)")
	}
	m := fs.T.M
	want := m.Mul(uint64(fs.T.N), m.Reduce(a[0]))
	for attempt := 1; ; attempt++ {
		hi, lo := fs.forwardSum(dst, a)
		if c.Corrupt(dst) > 0 {
			hi, lo = modmath.SumVec(dst)
		}
		c.Checked()
		if got := m.Reduce128(hi, lo); got == want {
			return got, nil
		}
		c.Detected()
		if attempt > integrity.DefaultMaxRecompute {
			return 0, c.Escalate("ntt.FourStep.Forward", attempt)
		}
		c.Recomputed()
	}
}

// InverseChecked is the four-step inverse under the integrity protocol,
// verified with the full weighted identity: the standard-order input's
// weighted checksum must equal the output coefficient row's plain sum,
// which is fused into the inverse twist's correction pass. dst must not
// alias a.
func (fs *FourStep) InverseChecked(dst, a []uint64, c *integrity.Checker) (uint64, error) {
	if &dst[0] == &a[0] {
		panic("ntt: FourStep.InverseChecked dst must not alias a (input is the recompute scratch)")
	}
	m := fs.T.M
	want := fs.T.NTTChecksumStandard(a)
	for attempt := 1; ; attempt++ {
		hi, lo := fs.inverseSum(dst, a)
		if c.Corrupt(dst) > 0 {
			hi, lo = modmath.SumVec(dst)
		}
		c.Checked()
		if got := m.Reduce128(hi, lo); got == want {
			return got, nil
		}
		c.Detected()
		if attempt > integrity.DefaultMaxRecompute {
			return 0, c.Escalate("ntt.FourStep.Inverse", attempt)
		}
		c.Recomputed()
	}
}

// forwardSum is Forward with the output residue checksum fused into the
// row stage's correction sweep, returning the raw 128-bit sum of dst.
func (fs *FourStep) forwardSum(dst, a []uint64) (hi, lo uint64) {
	n1, n2 := fs.N1, fs.N2
	bufp := fs.getBuf()
	buf := *bufp
	if parallel.Workers() == 1 {
		tilep := fs.getTile()
		fs.colRangeFwd(buf, a, 0, n2, *tilep)
		hi, lo = fs.rowRangeFwdSum(dst, buf, 0, n1, *tilep)
		fs.tilePool.Put(tilep)
		fs.bufPool.Put(bufp)
		return hi, lo
	}
	var mu sync.Mutex
	parallel.ForChunk(n2, func(lo2, hi2 int) {
		tilep := fs.getTile()
		fs.colRangeFwd(buf, a, lo2, hi2, *tilep)
		fs.tilePool.Put(tilep)
	})
	parallel.ForChunk(n1, func(lo1, hi1 int) {
		tilep := fs.getTile()
		h, l := fs.rowRangeFwdSum(dst, buf, lo1, hi1, *tilep)
		fs.tilePool.Put(tilep)
		mu.Lock()
		var cy uint64
		lo, cy = addCarry(lo, l)
		hi += h + cy
		mu.Unlock()
	})
	fs.bufPool.Put(bufp)
	return hi, lo
}

// inverseSum is Inverse with the output residue checksum fused into the
// inverse twist's correction pass.
func (fs *FourStep) inverseSum(dst, a []uint64) (hi, lo uint64) {
	n1, n2 := fs.N1, fs.N2
	bufp := fs.getBuf()
	buf := *bufp
	if parallel.Workers() == 1 {
		tilep := fs.getTile()
		fs.rowRangeInv(buf, a, 0, n1, *tilep)
		hi, lo = fs.colRangeInvSum(dst, buf, 0, n2, *tilep)
		fs.tilePool.Put(tilep)
		fs.bufPool.Put(bufp)
		return hi, lo
	}
	var mu sync.Mutex
	parallel.ForChunk(n1, func(lo1, hi1 int) {
		tilep := fs.getTile()
		fs.rowRangeInv(buf, a, lo1, hi1, *tilep)
		fs.tilePool.Put(tilep)
	})
	parallel.ForChunk(n2, func(lo2, hi2 int) {
		tilep := fs.getTile()
		h, l := fs.colRangeInvSum(dst, buf, lo2, hi2, *tilep)
		fs.tilePool.Put(tilep)
		mu.Lock()
		var cy uint64
		lo, cy = addCarry(lo, l)
		hi += h + cy
		mu.Unlock()
	})
	fs.bufPool.Put(bufp)
	return hi, lo
}

// rowRangeFwdSum mirrors rowRangeFwd with ReduceFourQSumVec as the
// correction sweep, accumulating the checksum of the corrected rows.
func (fs *FourStep) rowRangeFwdSum(dst, buf []uint64, lo, hi int, tile []uint64) (sumHi, sumLo uint64) {
	m := fs.T.M
	n1, n2 := fs.N1, fs.N2
	br := fs.sub2.brv
	for k1 := lo; k1 < hi; k1 += colBlock {
		bc := colBlock
		if k1+bc > hi {
			bc = hi - k1
		}
		for c := 0; c < bc; c++ {
			k := k1 + c
			row := buf[k*n2 : (k+1)*n2 : (k+1)*n2]
			tw := fs.twiddle[k*n2 : (k+1)*n2 : (k+1)*n2]
			tws := fs.twiddleShoup[k*n2 : (k+1)*n2 : (k+1)*n2]
			trow := tile[c*n2 : (c+1)*n2 : (c+1)*n2]
			for j2 := 0; j2 < n2; j2++ {
				trow[br[j2]] = m.MulShoupLazy(row[j2], tw[j2], tws[j2])
			}
			fs.sub2.forwardLazyBR(trow)
			h, l := m.ReduceFourQSumVec(trow)
			var carry uint64
			sumLo, carry = addCarry(sumLo, l)
			sumHi += h + carry
		}
		for k2 := 0; k2 < n2; k2++ {
			d := dst[k2*n1+k1:]
			for c := 0; c < bc; c++ {
				d[c] = tile[c*n2+k2]
			}
		}
	}
	return sumHi, sumLo
}

// colRangeInvSum mirrors colRangeInv with the final corrected scatter
// fused with the checksum accumulation.
func (fs *FourStep) colRangeInvSum(dst, buf []uint64, lo, hi int, tile []uint64) (sumHi, sumLo uint64) {
	m := fs.T.M
	n1, n2 := fs.N1, fs.N2
	br := fs.sub1.brv
	for j2 := lo; j2 < hi; j2 += colBlock {
		bc := colBlock
		if j2+bc > hi {
			bc = hi - j2
		}
		for j1 := 0; j1 < n1; j1++ {
			src := buf[j1*n2+j2:]
			r := int(br[j1])
			for c := 0; c < bc; c++ {
				tile[c*n1+r] = src[c]
			}
		}
		for c := 0; c < bc; c++ {
			fs.sub1.inverseLazyBR(tile[c*n1 : (c+1)*n1])
		}
		for j1 := 0; j1 < n1; j1++ {
			d := dst[j1*n2+j2:]
			twi := fs.twistInv[j1*n2+j2:]
			twis := fs.twistInvShoup[j1*n2+j2:]
			for c := 0; c < bc; c++ {
				x := m.MulShoup(tile[c*n1+j1], twi[c], twis[c])
				d[c] = x
				var carry uint64
				sumLo, carry = addCarry(sumLo, x)
				sumHi += carry
			}
		}
	}
	return sumHi, sumLo
}

// addCarry adds b into a, returning the sum and carry-out.
func addCarry(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return sum, carry
}
