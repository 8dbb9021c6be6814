package ntt

import (
	"fmt"
	"sync"

	"crophe/internal/modmath"
	"crophe/internal/parallel"
)

// colBlock is the transpose tile width: columns (and transposed rows) are
// gathered and scattered in groups of colBlock so every pass over the
// N1×N2 working matrix touches contiguous cache lines on at least one
// side of the strided access.
const colBlock = 8

// FourStep evaluates the length-N negacyclic NTT through the four-step
// (a.k.a. six-step / decomposed) algorithm with N = N1·N2:
//
//	pre-twist by ψ^j → N2 column transforms of length N1 →
//	element-wise twiddle ω^{j2·k1} → transpose → N1 row transforms of
//	length N2.
//
// This mirrors the operator sequence the CROPHE scheduler materialises
// (col-(i)NTT, ⊗twiddle, transpose, row-(i)NTT) so the functional kernel
// and the scheduled dataflow share one source of truth. Results are in
// standard (natural) order: out[k] = a(ψ^{2k+1}).
//
// All interior stages run on lazy 2q/4q-residues (see internal/modmath's
// lazy layer); redundancy is corrected exactly once per direction — after
// the row transforms on the forward path, folded into the inverse twist
// on the inverse path — so the outputs are bit-identical to the strict
// reference while the butterflies stay branch-free.
type FourStep struct {
	T      *Table
	N1, N2 int

	sub1, sub2 *cyclicTable // cyclic DFT tables of sizes N1, N2

	twist           []uint64 // ψ^j, j = 0..N-1 (negacyclic pre-twist)
	twistShoup      []uint64
	twistInv        []uint64 // ψ^{-j}/N merged inverse twist
	twistInvShoup   []uint64
	twiddle         []uint64 // ω^{j2·k1} laid out [k1][j2] (N1×N2)
	twiddleShoup    []uint64
	twiddleInv      []uint64
	twiddleInvShoup []uint64

	// Scratch pools sized for the batch layout: the N-element working
	// matrix and the colBlock×max(N1,N2) transpose tiles. Reusing them
	// keeps the steady state allocation-free even when columns and rows
	// are transformed across the worker pool.
	bufPool  sync.Pool // *[]uint64, length N
	tilePool sync.Pool // *[]uint64, length colBlock·max(N1,N2)
}

func (fs *FourStep) getBuf() *[]uint64 {
	if b, ok := fs.bufPool.Get().(*[]uint64); ok {
		return b
	}
	b := make([]uint64, fs.N1*fs.N2)
	return &b
}

func (fs *FourStep) getTile() *[]uint64 {
	if v, ok := fs.tilePool.Get().(*[]uint64); ok {
		return v
	}
	n := fs.N1
	if fs.N2 > n {
		n = fs.N2
	}
	v := make([]uint64, colBlock*n)
	return &v
}

// NewFourStep builds a decomposed transform for t.N = n1·n2, both powers
// of two ≥ 2.
func NewFourStep(t *Table, n1, n2 int) (*FourStep, error) {
	if n1 < 2 || n2 < 2 || n1&(n1-1) != 0 || n2&(n2-1) != 0 {
		return nil, fmt.Errorf("ntt: four-step factors %d×%d must be powers of two ≥ 2", n1, n2)
	}
	if n1*n2 != t.N {
		return nil, fmt.Errorf("ntt: four-step factors %d×%d do not multiply to N=%d", n1, n2, t.N)
	}
	m := t.M
	n := t.N
	psi, err := modmath.RootOfUnity(m, uint64(n))
	if err != nil {
		return nil, err
	}
	omega := m.Mul(psi, psi) // primitive N-th root
	psiInv := m.Inv(psi)

	fs := &FourStep{T: t, N1: n1, N2: n2}
	fs.sub1 = newCyclicTable(m, n1, m.Pow(omega, uint64(n2)))
	fs.sub2 = newCyclicTable(m, n2, m.Pow(omega, uint64(n1)))

	// The two sub-inverses already contribute 1/N1·1/N2 = 1/N, so the
	// inverse twist is plain ψ^{-j} with no extra scaling.
	fs.twist = make([]uint64, n)
	fs.twistInv = make([]uint64, n)
	w, wi := uint64(1), uint64(1)
	for j := 0; j < n; j++ {
		fs.twist[j] = w
		fs.twistInv[j] = wi
		w = m.Mul(w, psi)
		wi = m.Mul(wi, psiInv)
	}

	fs.twiddle = make([]uint64, n)
	fs.twiddleInv = make([]uint64, n)
	omegaInv := m.Inv(omega)
	for k1 := 0; k1 < n1; k1++ {
		for j2 := 0; j2 < n2; j2++ {
			e := uint64(k1) * uint64(j2)
			fs.twiddle[k1*n2+j2] = m.Pow(omega, e)
			fs.twiddleInv[k1*n2+j2] = m.Pow(omegaInv, e)
		}
	}

	fs.twistShoup = make([]uint64, n)
	fs.twistInvShoup = make([]uint64, n)
	fs.twiddleShoup = make([]uint64, n)
	fs.twiddleInvShoup = make([]uint64, n)
	m.ShoupPrecompute(fs.twistShoup, fs.twist)
	m.ShoupPrecompute(fs.twistInvShoup, fs.twistInv)
	m.ShoupPrecompute(fs.twiddleShoup, fs.twiddle)
	m.ShoupPrecompute(fs.twiddleInvShoup, fs.twiddleInv)
	return fs, nil
}

// Forward computes the standard-order negacyclic NTT of a into dst
// (dst[k] = a(ψ^{2k+1})). dst and a must have length N and may alias.
//
// Residue ranges through the stages: twist <2q → column DFTs <4q →
// twiddle <2q → row DFTs <4q → corrected to <q before the transposed
// scatter into dst.
func (fs *FourStep) Forward(dst, a []uint64) {
	n1, n2 := fs.N1, fs.N2
	n := n1 * n2
	if len(a) != n || len(dst) != n {
		panic("ntt: FourStep.Forward length mismatch")
	}
	bufp := fs.getBuf()
	buf := *bufp
	if parallel.Workers() == 1 {
		// Serial fast path: call the stage helpers directly. The parallel
		// branch below passes closures to ForChunk, which forces them to
		// the heap; dodging the closures keeps steady-state Forward at
		// zero allocations (asserted by TestFourStepAllocFree).
		tilep := fs.getTile()
		fs.colRangeFwd(buf, a, 0, n2, *tilep)
		fs.rowRangeFwd(dst, buf, 0, n1, *tilep)
		fs.tilePool.Put(tilep)
		fs.bufPool.Put(bufp)
		return
	}
	// Each parallel.ForChunk is a barrier, mirroring the stage boundaries
	// the scheduler pipelines at. The twist is fused into the column
	// gather and the twiddle into the row stage, so two barriers suffice.
	parallel.ForChunk(n2, func(lo, hi int) {
		tilep := fs.getTile()
		fs.colRangeFwd(buf, a, lo, hi, *tilep)
		fs.tilePool.Put(tilep)
	})
	parallel.ForChunk(n1, func(lo, hi int) {
		tilep := fs.getTile()
		fs.rowRangeFwd(dst, buf, lo, hi, *tilep)
		fs.tilePool.Put(tilep)
	})
	fs.bufPool.Put(bufp)
}

// Inverse undoes Forward: given standard-order NTT values it reconstructs
// the coefficients, running the four steps mirrored. The lazy 2q-residues
// carried between stages are corrected by the final inverse-twist pass.
func (fs *FourStep) Inverse(dst, a []uint64) {
	n1, n2 := fs.N1, fs.N2
	n := n1 * n2
	if len(a) != n || len(dst) != n {
		panic("ntt: FourStep.Inverse length mismatch")
	}
	bufp := fs.getBuf()
	buf := *bufp
	if parallel.Workers() == 1 {
		tilep := fs.getTile()
		fs.rowRangeInv(buf, a, 0, n1, *tilep)
		fs.colRangeInv(dst, buf, 0, n2, *tilep)
		fs.tilePool.Put(tilep)
		fs.bufPool.Put(bufp)
		return
	}
	parallel.ForChunk(n1, func(lo, hi int) {
		tilep := fs.getTile()
		fs.rowRangeInv(buf, a, lo, hi, *tilep)
		fs.tilePool.Put(tilep)
	})
	parallel.ForChunk(n2, func(lo, hi int) {
		tilep := fs.getTile()
		fs.colRangeInv(dst, buf, lo, hi, *tilep)
		fs.tilePool.Put(tilep)
	})
	fs.bufPool.Put(bufp)
}

// colRangeFwd runs forward length-N1 cyclic DFTs over columns [lo, hi)
// of the row-major N1×N2 input, colBlock columns at a time: gather a
// tile of columns straight from the caller's input with the negacyclic
// pre-twist ψ^j fused in (contiguous reads along each matrix row),
// transform the tile rows in place, scatter into the working matrix.
// Outputs are 4q-residues.
func (fs *FourStep) colRangeFwd(buf, a []uint64, lo, hi int, tile []uint64) {
	m := fs.T.M
	n1, n2 := fs.N1, fs.N2
	br := fs.sub1.brv
	for j2 := lo; j2 < hi; j2 += colBlock {
		bc := colBlock
		if j2+bc > hi {
			bc = hi - j2
		}
		for j1 := 0; j1 < n1; j1++ {
			src := a[j1*n2+j2:]
			tw := fs.twist[j1*n2+j2:]
			tws := fs.twistShoup[j1*n2+j2:]
			r := int(br[j1])
			for c := 0; c < bc; c++ {
				tile[c*n1+r] = m.MulShoupLazy(src[c], tw[c], tws[c])
			}
		}
		for c := 0; c < bc; c++ {
			fs.sub1.forwardLazyBR(tile[c*n1 : (c+1)*n1])
		}
		for j1 := 0; j1 < n1; j1++ {
			dst := buf[j1*n2+j2:]
			for c := 0; c < bc; c++ {
				dst[c] = tile[c*n1+j1]
			}
		}
	}
}

// colRangeInv mirrors colRangeFwd for the inverse direction: gather
// columns of the working matrix, run the inverse (scaled) sub-transform,
// and scatter into dst with the inverse twist ψ^{-j} fused in, fully
// corrected — this is the single point where the inverse path's lazy
// residues return to canonical [0, q).
func (fs *FourStep) colRangeInv(dst, buf []uint64, lo, hi int, tile []uint64) {
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
				d[c] = m.MulShoup(tile[c*n1+j1], twi[c], twis[c])
			}
		}
	}
}

// rowRangeFwd processes rows [lo, hi) of the working matrix in colBlock
// groups: each row is gathered into the tile in bit-reversed order with
// the row-contiguous ω^{k1·j2} twiddle fused into the load, transformed,
// and corrected from 4q-residues to canonical; then the group performs
// the transposed scatter dst[k2·N1+k1] = tile-row[k2] in colBlock-wide
// stripes so the writes into dst are contiguous.
func (fs *FourStep) rowRangeFwd(dst, buf []uint64, lo, hi int, tile []uint64) {
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
			m.ReduceFourQVec(trow)
		}
		for k2 := 0; k2 < n2; k2++ {
			d := dst[k2*n1+k1:]
			for c := 0; c < bc; c++ {
				d[c] = tile[c*n2+k2]
			}
		}
	}
}

// rowRangeInv gathers transposed rows k1 ∈ [lo, hi) from the standard-
// order input (tile reads are contiguous stripes of a), runs the inverse
// sub-transform, and stores them as rows of the working matrix with the
// inverse twiddle fused into the store. Outputs are 2q-residues.
func (fs *FourStep) rowRangeInv(buf, a []uint64, lo, hi int, tile []uint64) {
	m := fs.T.M
	n1, n2 := fs.N1, fs.N2
	br := fs.sub2.brv
	for k1 := lo; k1 < hi; k1 += colBlock {
		bc := colBlock
		if k1+bc > hi {
			bc = hi - k1
		}
		for k2 := 0; k2 < n2; k2++ {
			src := a[k2*n1+k1:]
			r := int(br[k2])
			for c := 0; c < bc; c++ {
				tile[c*n2+r] = src[c]
			}
		}
		for c := 0; c < bc; c++ {
			row := tile[c*n2 : (c+1)*n2]
			fs.sub2.inverseLazyBR(row)
			k := k1 + c
			m.MulShoupPairLazyVec(buf[k*n2:(k+1)*n2], row, fs.twiddleInv[k*n2:(k+1)*n2], fs.twiddleInvShoup[k*n2:(k+1)*n2])
		}
	}
}

// ForwardStandard runs the radix-2 transform and permutes the output into
// standard order, the reference FourStep.Forward must match.
func (t *Table) ForwardStandard(dst, a []uint64) {
	tmp := append([]uint64(nil), a...)
	t.Forward(tmp)
	logN := log2(t.N)
	for k := range dst {
		dst[k] = tmp[int(bitReverse(uint(k), logN))]
	}
}

// InverseStandard is the inverse of ForwardStandard.
func (t *Table) InverseStandard(dst, a []uint64) {
	tmp := make([]uint64, t.N)
	logN := log2(t.N)
	for k := range a {
		tmp[int(bitReverse(uint(k), logN))] = a[k]
	}
	t.Inverse(tmp)
	copy(dst, tmp)
}

func log2(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// cyclicTable is a plain (non-negacyclic) radix-2 DFT over Z_q with a given
// primitive n-th root, used for the four-step sub-transforms.
type cyclicTable struct {
	m     modmath.Modulus
	n     int
	wPow  []uint64 // ω^i
	wiPow []uint64 // ω^{-i}

	// Per-stage packed twiddles for the lazy DIT kernel: the stage with
	// half-size h occupies [h-1, 2h-1), entry i being ω^{i·n/(2h)} (resp.
	// the inverse), so every stage reads its twiddles contiguously.
	stageTw       []uint64
	stageTwShoup  []uint64
	stageTwi      []uint64
	stageTwiShoup []uint64

	brv []uint32 // bit-reversal permutation of [0, n)

	nInv      uint64
	nInvShoup uint64
}

func newCyclicTable(m modmath.Modulus, n int, omega uint64) *cyclicTable {
	c := &cyclicTable{m: m, n: n, nInv: m.Inv(uint64(n))}
	c.nInvShoup = m.ShoupPrecomp(c.nInv)
	c.wPow = make([]uint64, n)
	c.wiPow = make([]uint64, n)
	oi := m.Inv(omega)
	w, wi := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		c.wPow[i], c.wiPow[i] = w, wi
		w = m.Mul(w, omega)
		wi = m.Mul(wi, oi)
	}
	c.stageTw = make([]uint64, n-1)
	c.stageTwi = make([]uint64, n-1)
	for half := 1; half < n; half <<= 1 {
		step := n / (half << 1)
		for i := 0; i < half; i++ {
			c.stageTw[half-1+i] = c.wPow[i*step]
			c.stageTwi[half-1+i] = c.wiPow[i*step]
		}
	}
	c.stageTwShoup = make([]uint64, n-1)
	c.stageTwiShoup = make([]uint64, n-1)
	m.ShoupPrecompute(c.stageTwShoup, c.stageTw)
	m.ShoupPrecompute(c.stageTwiShoup, c.stageTwi)
	logN := log2(n)
	c.brv = make([]uint32, n)
	for i := 0; i < n; i++ {
		c.brv[i] = uint32(bitReverse(uint(i), logN))
	}
	return c
}

// forwardLazyBR computes the cyclic DFT X[k] = Σ a[j]·ω^{jk} of an input
// whose elements are ALREADY in bit-reversed order (the four-step gather
// loops write tile entries through brv, folding the DIT permutation into
// a pass that exists anyway). Lazy butterflies: inputs in [0, 4q),
// outputs in [0, 4q) in natural order, no final correction.
func (c *cyclicTable) forwardLazyBR(a []uint64) {
	c.transformLazyBR(a, c.stageTw, c.stageTwShoup, false)
}

// inverseLazyBR computes a[j] = (1/n)·Σ X[k]·ω^{-jk} of a bit-reversed
// input; the lazy 1/n scaling brings the output into [0, 2q).
func (c *cyclicTable) inverseLazyBR(a []uint64) {
	c.transformLazyBR(a, c.stageTwi, c.stageTwiShoup, true)
}

// transformLazyBR is the iterative radix-2 DIT kernel on lazy residues:
// log n butterfly stages entirely in [0, 4q), no permutation (the input
// is pre-bit-reversed). Stage twiddles come from the per-stage packed
// tables (stage with half h starts at offset h−1), so the inner loop
// reads them contiguously; stages with half ≥ 8 run an 8-way unrolled
// loop over re-sliced halves with the bounds checks eliminated.
func (c *cyclicTable) transformLazyBR(a []uint64, stw, stwShoup []uint64, scale bool) {
	n := c.n
	m := c.m
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := stw[half-1 : half-1+half : half-1+half]
		tws := stwShoup[half-1 : half-1+half : half-1+half]
		if half < 8 {
			for start := 0; start < n; start += size {
				for i := 0; i < half; i++ {
					a[start+i], a[start+i+half] = m.CTButterflyLazy(a[start+i], a[start+i+half], tw[i], tws[i])
				}
			}
			continue
		}
		for start := 0; start < n; start += size {
			x := a[start : start+half : start+half]
			y := a[start+half : start+size : start+size]
			for i := 0; i+7 < half; i += 8 {
				x[i+0], y[i+0] = m.CTButterflyLazy(x[i+0], y[i+0], tw[i+0], tws[i+0])
				x[i+1], y[i+1] = m.CTButterflyLazy(x[i+1], y[i+1], tw[i+1], tws[i+1])
				x[i+2], y[i+2] = m.CTButterflyLazy(x[i+2], y[i+2], tw[i+2], tws[i+2])
				x[i+3], y[i+3] = m.CTButterflyLazy(x[i+3], y[i+3], tw[i+3], tws[i+3])
				x[i+4], y[i+4] = m.CTButterflyLazy(x[i+4], y[i+4], tw[i+4], tws[i+4])
				x[i+5], y[i+5] = m.CTButterflyLazy(x[i+5], y[i+5], tw[i+5], tws[i+5])
				x[i+6], y[i+6] = m.CTButterflyLazy(x[i+6], y[i+6], tw[i+6], tws[i+6])
				x[i+7], y[i+7] = m.CTButterflyLazy(x[i+7], y[i+7], tw[i+7], tws[i+7])
			}
		}
	}
	if scale {
		m.MulShoupLazyVec(a, a, c.nInv, c.nInvShoup)
	}
}

// transform is the strict reference kernel (fully reduced butterflies),
// kept for the lazy-vs-strict equivalence tests.
func (c *cyclicTable) transform(a []uint64, pow []uint64, scale bool) {
	n := c.n
	m := c.m
	logN := log2(n)
	// Bit-reversal permutation to natural DIT order.
	for i := 0; i < n; i++ {
		j := int(bitReverse(uint(i), logN))
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for i := 0; i < half; i++ {
				w := pow[i*step]
				u := a[start+i]
				v := m.Mul(a[start+i+half], w)
				a[start+i] = m.Add(u, v)
				a[start+i+half] = m.Sub(u, v)
			}
		}
	}
	if scale {
		for i := range a {
			a[i] = m.Mul(a[i], c.nInv)
		}
	}
}
