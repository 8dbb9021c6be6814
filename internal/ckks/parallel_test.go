package ckks

import (
	"testing"

	"crophe/internal/parallel"
)

// ctEqual compares two ciphertexts limb-for-limb.
func ctEqual(a, b *Ciphertext) bool {
	return a.Level == b.Level && a.Scale == b.Scale &&
		a.B.Equal(b.B) && a.A.Equal(b.A)
}

// TestKeySwitchParallelBitExact runs the full key-switch pipeline (via
// Rotate and MulRelin) at pool size 1 and at a large pool: the
// digit-parallel ModUp and the limb-parallel inner product must reproduce
// the serial run bit-for-bit (modular arithmetic is exact, so any
// divergence is a bug, not rounding).
func TestKeySwitchParallelBitExact(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	run := func(workers int) (rot, mul *Ciphertext) {
		parallel.SetWorkers(workers)
		tc := newTestContext(t, 9, 5, 2, []int{3})
		v := randomValues(tc.rng, tc.params.Slots())
		pt, err := tc.enc.Encode(v, tc.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.encr.Encrypt(pt)
		rot, err = tc.eval.Rotate(ct, 3)
		if err != nil {
			t.Fatal(err)
		}
		mul, err = tc.eval.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		return rot, mul
	}

	serialRot, serialMul := run(1)
	parRot, parMul := run(13)

	if !ctEqual(serialRot, parRot) {
		t.Error("Rotate: parallel key-switch differs from serial")
	}
	if !ctEqual(serialMul, parMul) {
		t.Error("MulRelin: parallel key-switch differs from serial")
	}
}

// TestRotateHoistedParallelBitExact runs a full hoisted multi-rotation at
// pool size 1 vs N and requires identical ciphertexts for every rotation
// amount, including the pass-through rotation 0.
func TestRotateHoistedParallelBitExact(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	rotations := []int{0, 1, 2, 5}
	run := func(workers int) map[int]*Ciphertext {
		parallel.SetWorkers(workers)
		tc := newTestContext(t, 9, 5, 2, rotations[1:])
		v := randomValues(tc.rng, tc.params.Slots())
		pt, err := tc.enc.Encode(v, tc.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.encr.Encrypt(pt)
		out, err := tc.eval.RotateHoisted(ct, rotations)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	serial := run(1)
	par := run(13)
	if len(serial) != len(par) {
		t.Fatalf("result count %d vs %d", len(par), len(serial))
	}
	for r, want := range serial {
		got, ok := par[r]
		if !ok {
			t.Fatalf("rotation %d missing from parallel result", r)
		}
		if !ctEqual(want, got) {
			t.Errorf("rotation %d: parallel result differs from serial", r)
		}
	}
}

// TestEvaluatorSharedAcrossGoroutines exercises concurrent key-switching
// on one Evaluator while the kernels themselves run on the pool — the
// nesting the bounded pool must keep deadlock- and race-free.
func TestEvaluatorSharedAcrossGoroutines(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(4)

	tc := newTestContext(t, 9, 5, 2, []int{1, 2})
	v := randomValues(tc.rng, tc.params.Slots())
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	ref, err := tc.eval.Rotate(ct, 1)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	results := make([]*Ciphertext, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			results[g], errs[g] = tc.eval.Rotate(ct, 1)
			done <- g
		}(g)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !ctEqual(ref, results[g]) {
			t.Errorf("goroutine %d: concurrent rotate differs", g)
		}
	}
}
