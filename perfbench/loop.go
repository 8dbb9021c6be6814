package main

import (
	"math/rand"
	"strconv"
	"time"
)

// opFunc runs one op of a closed loop on item, with child spans under
// root when tr is non-nil, and returns the check of its outputs, which
// runs after the op's latency is taken.
type opFunc func(item int, tr *tracer, root, op int) (check func() error)

// closedLoop runs passes × items ops with one caller, each pass visiting
// every item once in a seeded order, so every seed times the same
// multiset of ops. With tr non-nil, odd passes are traced: the untraced
// passes are the reference for trace.overhead_frac.
func closedLoop(rng *rand.Rand, passes, items int, tr *tracer, body opFunc) *phase {
	ph := &phase{layers: map[string]float64{}}
	ph.before = sampleProc()
	op := 0
	for p := 0; p < passes; p++ {
		ptr := tr
		if p%2 == 0 {
			ptr = nil
		}
		for _, item := range rng.Perm(items) {
			root := ptr.begin("op", -1, op)
			t0 := time.Now()
			check := body(item, ptr, root, op)
			lat := time.Since(t0)
			ptr.end(root)
			ph.ops = append(ph.ops, opResult{lat: lat, err: check(), traced: ptr != nil, key: strconv.Itoa(item)})
			op++
		}
	}
	ph.after = sampleProc()
	return ph
}
