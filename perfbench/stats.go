package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs (the mean of the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank p-th percentile of xs.
func rank(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailPercentile is the highest whole percentile of n samples that still
// has at least ten samples beyond its nearest rank.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		k := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-k >= 10 {
			return p
		}
	}
	return 50
}

// digest is an order-sensitive FNV-1a hash of model outputs. Floats are
// hashed by their bits, so any change to any output digit changes it.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) i(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) s(v string) {
	d.i(len(v))
	d.h.Write([]byte(v))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// combine folds keyed per-item digests into one, independent of the order
// the items were run in.
func combine(items map[string]uint64) string {
	d := newDigest()
	for _, k := range sortedKeys(items) {
		d.s(k)
		d.i(int(items[k]))
	}
	return fmt.Sprintf("%016x", d.sum())
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// procSample is a snapshot of process-wide resource counters.
type procSample struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU of the process
	gcCPU    float64       // runtime/metrics GC CPU seconds
	totalCPU float64       // runtime/metrics total CPU seconds
	alloc    uint64        // cumulative heap bytes allocated
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    ms[0].Value.Float64(),
		totalCPU: ms[1].Value.Float64(),
		alloc:    m.TotalAlloc,
	}
}

// liveHeapMB forces collections and returns the heap still in use. The
// second collection frees what sync.Pool caches held through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
