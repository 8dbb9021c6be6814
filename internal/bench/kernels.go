package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"crophe/internal/integrity"
	"crophe/internal/modmath"
	"crophe/internal/ntt"
)

// KernelRow is one measured shape of the batch NTT kernel layer: a
// direction over a limbs×N limb-major batch, with the headline per-op
// cost and the implied memory throughput.
type KernelRow struct {
	Direction string // "forward" or "inverse"
	N         int
	Limbs     int
	NsOp      float64 // wall clock per whole-batch transform
	GBps      float64 // 8·N·limbs bytes per op at NsOp
}

// kernelShapes are the (N, limbs) points measured, mirroring the
// BenchmarkBatchNTT family in internal/ntt. Fast mode keeps the two
// cheapest shapes for CI smoke runs.
func kernelShapes(fast bool) [][2]int {
	if fast {
		return [][2]int{{4096, 1}, {4096, 8}}
	}
	return [][2]int{
		{4096, 1}, {4096, 8}, {4096, 32},
		{16384, 8}, {65536, 8},
	}
}

// Kernels measures BatchForward/BatchInverse wall clock per op over the
// kernel shapes. Unlike the model experiments, these ARE machine
// measurements: the numbers are noisy, so each shape takes the minimum
// of three adaptively-sized samples, and Compare applies cost semantics
// (increase-only, threshold-gated) to the resulting ns_op metrics.
func Kernels(fast bool) ([]KernelRow, error) {
	var rows []KernelRow
	for _, shape := range kernelShapes(fast) {
		n, limbs := shape[0], shape[1]
		primes, err := modmath.GeneratePrimes(45, uint64(n), limbs)
		if err != nil {
			return nil, fmt.Errorf("bench: kernels N=%d limbs=%d: %w", n, limbs, err)
		}
		tables := make([]*ntt.Table, limbs)
		batch := make([][]uint64, limbs)
		backing := make([]uint64, n*limbs) // contiguous limb-major, as in poly
		rng := rand.New(rand.NewSource(int64(n + limbs)))
		for k := range tables {
			tbl, err := ntt.NewTable(modmath.MustModulus(primes[k]), n)
			if err != nil {
				return nil, err
			}
			tables[k] = tbl
			batch[k] = backing[k*n : (k+1)*n]
			for i := range batch[k] {
				batch[k][i] = rng.Uint64() % tbl.M.Q
			}
		}
		for _, dir := range []struct {
			name string
			op   func()
		}{
			{"forward", func() { ntt.BatchForward(tables, batch) }},
			{"inverse", func() { ntt.BatchInverse(tables, batch) }},
		} {
			nsOp := measureNsOp(dir.op)
			rows = append(rows, KernelRow{
				Direction: dir.name, N: n, Limbs: limbs,
				NsOp: nsOp, GBps: float64(8*n*limbs) / nsOp,
			})
		}
	}
	return rows, nil
}

// IntegrityRow is one measured plain-vs-checked pairing of the
// four-step forward transform: the ABFT-verified kernel against the
// unchecked one on the same table and input, and the implied relative
// overhead of carrying the checksum.
type IntegrityRow struct {
	N            int
	PlainNs      float64
	CheckedNs    float64
	OverheadFrac float64 // median over interleaved pairs of checked/plain - 1
	SpreadFrac   float64 // interquartile range of those paired overheads
}

// integrityPairs is the number of interleaved plain/checked samples
// behind each overhead estimate. Of the form 4k+1, so the median and
// both quartiles are single pairs.
const integrityPairs = 9

// integrityShapes are the transform sizes measured for the ABFT
// overhead gate; fast mode keeps the single CI-smoke shape.
func integrityShapes(fast bool) []int {
	if fast {
		return []int{4096}
	}
	return []int{4096, 16384}
}

// kernelsExperiment is the "kernels" experiment in both the plain and the
// report paths: the batch-NTT throughput table and the ABFT integrity
// overhead table, with their headline metrics.
func kernelsExperiment(fast bool) (string, map[string]float64, error) {
	rows, err := Kernels(fast)
	if err != nil {
		return "", nil, err
	}
	irows, err := KernelIntegrity(fast)
	if err != nil {
		return "", nil, err
	}
	m := kernelMetrics(rows)
	for k, v := range integrityMetrics(irows) {
		m[k] = v
	}
	return RenderKernels(rows) + "\n" + RenderKernelIntegrity(irows), m, nil
}

// KernelIntegrity measures the cost of the checked four-step forward
// transform against the unchecked kernel. The overhead fraction is the
// quantity the bench-diff gate pins: the fused-checksum design claims
// the verification rides along nearly free, and a refactor that breaks
// the fusion shows up here as overhead above the gate.
func KernelIntegrity(fast bool) ([]IntegrityRow, error) {
	var rows []IntegrityRow
	for _, n := range integrityShapes(fast) {
		primes, err := modmath.GeneratePrimes(45, uint64(n), 1)
		if err != nil {
			return nil, fmt.Errorf("bench: integrity N=%d: %w", n, err)
		}
		tbl, err := ntt.NewTable(modmath.MustModulus(primes[0]), n)
		if err != nil {
			return nil, err
		}
		n1 := 1
		for n1*n1 < n {
			n1 <<= 1
		}
		fs, err := ntt.NewFourStep(tbl, n1, n/n1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % tbl.M.Q
		}
		dst := make([]uint64, n)
		ck := integrity.NewChecker(1)
		plainOp := func() { fs.Forward(dst, a) }
		checkedOp := func() {
			if _, err := fs.ForwardChecked(dst, a, ck); err != nil {
				panic(err) // no injector: a mismatch here is a real kernel bug
			}
		}
		// Interleaved pairs: adjacent plain and checked samples see the
		// same machine, so each pair's ratio cancels slow drift. Noise
		// moves a single ratio either way, so the estimate is the median
		// pair, reported with the interquartile range of all pairs.
		plain, checked := math.Inf(1), math.Inf(1)
		ratios := make([]float64, integrityPairs)
		for pair := range ratios {
			p := measureNsOp(plainOp)
			c := measureNsOp(checkedOp)
			ratios[pair] = c/p - 1
			plain = math.Min(plain, p)
			checked = math.Min(checked, c)
		}
		sort.Float64s(ratios)
		q := len(ratios) / 4
		rows = append(rows, IntegrityRow{
			N: n, PlainNs: plain, CheckedNs: checked,
			OverheadFrac: ratios[len(ratios)/2],
			SpreadFrac:   ratios[len(ratios)-1-q] - ratios[q],
		})
	}
	return rows, nil
}

// RenderKernelIntegrity formats the overhead measurements.
func RenderKernelIntegrity(rows []IntegrityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "KERNELS — ABFT INTEGRITY OVERHEAD (measured, this machine; gate %.0f%%)\n",
		maxIntegrityOverheadFrac*100)
	fmt.Fprintf(&b, "%8s %12s %12s %10s %10s\n", "N", "plain ns", "checked ns", "overhead", "IQR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12.0f %12.0f %9.2f%% %9.2f%%\n",
			r.N, r.PlainNs, r.CheckedNs, r.OverheadFrac*100, r.SpreadFrac*100)
	}
	return b.String()
}

// integrityMetrics flattens the overhead rows. The ns_op keys get the
// usual cost semantics in Compare; the integrity_overhead_frac keys get
// the absolute gate.
func integrityMetrics(rows []IntegrityRow) map[string]float64 {
	m := map[string]float64{}
	for _, r := range rows {
		m[fmt.Sprintf("kernels/ns_op/fourstep_forward/N=%d", r.N)] = r.PlainNs
		m[fmt.Sprintf("kernels/ns_op/fourstep_forward_integrity/N=%d", r.N)] = r.CheckedNs
		m[fmt.Sprintf("kernels/integrity_overhead_frac/N=%d", r.N)] = r.OverheadFrac
	}
	return m
}

// measureNsOp times op: one warm-up call, then reps doubled until a
// sample clears minSample, and the minimum of three such samples wins —
// the standard defence against scheduler noise on a loaded machine.
func measureNsOp(op func()) float64 {
	const minSample = 2 * time.Millisecond
	op() // warm pools and caches
	reps := 1
	best := time.Duration(1<<63 - 1)
	for sample := 0; sample < 3; {
		start := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed < minSample && reps < 1<<20 {
			reps <<= 1
			continue
		}
		if per := elapsed / time.Duration(reps); per < best {
			best = per
		}
		sample++
	}
	return float64(best.Nanoseconds())
}

// RenderKernels formats the kernel measurements.
func RenderKernels(rows []KernelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "KERNELS — BATCH NTT LAYER (measured, this machine)\n")
	fmt.Fprintf(&b, "%-8s %8s %6s %12s %8s\n", "Dir", "N", "Limbs", "ns/op", "GB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d %6d %12.0f %8.2f\n",
			r.Direction, r.N, r.Limbs, r.NsOp, r.GBps)
	}
	return b.String()
}

// kernelMetrics flattens rows into the report's metric map. The ns_op
// infix marks these as cost metrics for Compare.
func kernelMetrics(rows []KernelRow) map[string]float64 {
	m := map[string]float64{}
	for _, r := range rows {
		m[fmt.Sprintf("kernels/ns_op/%s/N=%d/limbs=%d", r.Direction, r.N, r.Limbs)] = r.NsOp
	}
	return m
}
