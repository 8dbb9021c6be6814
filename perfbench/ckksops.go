package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"crophe/internal/ckks"
	"crophe/internal/ntt"
)

// ckks-ops: closed loop, one caller, functional RNS-CKKS. Each op is one
// fixed key-switch-heavy composite — a relinearised HMult, a rescale,
// hoisted rotations by every baby step and an accumulate — the kernel
// behind a BSGS matrix-vector product. Each op's result is decrypted and
// compared with the same arithmetic on the plaintext slots.

const (
	ckksLogN   = 13
	ckksLevels = 8
	ckksAlpha  = 3
	// ckksOpsPerSecond is the nominal op rate that turns --seconds into a
	// fixed op count.
	ckksOpsPerSecond = 7
	// ckksInputs is how many encrypted input pairs the ops cycle through.
	ckksInputs = 2
	// ckksMaxErr bounds the largest slot error of a checked op. Slots are
	// sums of nine products of values in [-1, 1]; the scheme's error at
	// these parameters is near 1e-7.
	ckksMaxErr = 1e-4
)

// ckksRotations are the baby-step rotations of the composite.
var ckksRotations = []int{1, 2, 3, 4, 5, 6, 7, 8}

type ckksInput struct {
	x, y   []complex128
	cx, cy *ckks.Ciphertext
	want   []complex128
}

type ckksOps struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	dec    *ckks.Decryptor
	eval   *ckks.Evaluator
	inputs []ckksInput
	passes int
	rng    *rand.Rand
	sums   map[int]uint64 // digest of the decrypted-and-checked output per input
}

func setupCKKSOps(seed int64, seconds int) (instance, error) {
	params, err := ckks.TestParameters(ckksLogN, ckksLevels, ckksAlpha)
	if err != nil {
		return nil, fmt.Errorf("parameters: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	kg := ckks.NewKeyGenerator(params, rng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	b := &ckksOps{
		params: params,
		enc:    ckks.NewEncoder(params),
		dec:    ckks.NewDecryptor(params, sk),
		eval:   ckks.NewEvaluator(params, kg.GenEvaluationKeySet(sk, ckksRotations)),
		passes: max(2, seconds*ckksOpsPerSecond/ckksInputs),
		rng:    rng,
		sums:   map[int]uint64{},
	}
	encryptor := ckks.NewEncryptor(params, pk, rng)
	n := params.Slots()
	for k := 0; k < ckksInputs; k++ {
		in := ckksInput{x: make([]complex128, n), y: make([]complex128, n), want: make([]complex128, n)}
		for i := 0; i < n; i++ {
			in.x[i] = complex(2*rng.Float64()-1, 0)
			in.y[i] = complex(2*rng.Float64()-1, 0)
		}
		for i := 0; i < n; i++ {
			for _, r := range append([]int{0}, ckksRotations...) {
				j := (i + r) % n
				in.want[i] += in.x[j] * in.y[j]
			}
		}
		if in.cx, err = ckks.EncryptAtLevel(b.enc, encryptor, in.x, params.MaxLevel()); err != nil {
			return nil, fmt.Errorf("encrypt: %w", err)
		}
		if in.cy, err = ckks.EncryptAtLevel(b.enc, encryptor, in.y, params.MaxLevel()); err != nil {
			return nil, fmt.Errorf("encrypt: %w", err)
		}
		b.inputs = append(b.inputs, in)
	}
	// Warm the evaluator's lazy state (automorphism maps, key-switch
	// scratch) with one op that is not timed.
	if _, err := b.composite(&b.inputs[0], nil, -1, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *ckksOps) sloLimit() time.Duration { return 500 * time.Millisecond }
func (b *ckksOps) close() error            { return nil }

func (b *ckksOps) digest() string {
	items := map[string]uint64{}
	for k, s := range b.sums {
		items[fmt.Sprint("input", k)] = s
	}
	return combine(items)
}

// composite is the op: HMult+relinearise, rescale, hoisted rotations,
// accumulate.
func (b *ckksOps) composite(in *ckksInput, tr *tracer, root, op int) (*ckks.Ciphertext, error) {
	var ct *ckks.Ciphertext
	var rots map[int]*ckks.Ciphertext
	var err error
	if tr.call("ckks.mulrelin", root, op, func() { ct, err = b.eval.MulRelin(in.cx, in.cy) }); err != nil {
		return nil, fmt.Errorf("mulrelin: %w", err)
	}
	if tr.call("ckks.rescale", root, op, func() { ct, err = b.eval.Rescale(ct) }); err != nil {
		return nil, fmt.Errorf("rescale: %w", err)
	}
	if tr.call("ckks.rotate_hoisted", root, op, func() { rots, err = b.eval.RotateHoisted(ct, ckksRotations) }); err != nil {
		return nil, fmt.Errorf("rotate: %w", err)
	}
	for _, r := range ckksRotations {
		if tr.call("ckks.add", root, op, func() { ct, err = b.eval.Add(ct, rots[r]) }); err != nil {
			return nil, fmt.Errorf("add: %w", err)
		}
	}
	return ct, nil
}

func (b *ckksOps) run(tr *tracer) (*phase, error) {
	ph := closedLoop(b.rng, b.passes, len(b.inputs), tr, func(k int, tr *tracer, root, op int) func() error {
		in := &b.inputs[k]
		ct, err := b.composite(in, tr, root, op)
		return func() error {
			if err != nil {
				return err
			}
			// The composite is deterministic, so an output bit-identical to
			// the checked first output on the same input is checked too;
			// only the first is decrypted (decoding costs more than the op).
			d := newDigest()
			d.s(string(ckks.MarshalCiphertext(ct)))
			sum := d.sum()
			if prev, ok := b.sums[k]; ok {
				if prev != sum {
					return fmt.Errorf("op %d: ciphertext differs from the checked output on the same input", op)
				}
				return nil
			}
			got := b.enc.Decode(b.dec.Decrypt(ct))
			var worst float64
			for i := range got {
				worst = math.Max(worst, cmplx.Abs(got[i]-in.want[i]))
			}
			if !(worst <= ckksMaxErr) {
				return fmt.Errorf("op %d: decrypted slot error %.3g exceeds %.0e", op, worst, ckksMaxErr)
			}
			fmt.Printf("ckks input %d: largest decrypted slot error %.3g (bound %.0e)\n", k, worst, ckksMaxErr)
			b.sums[k] = sum
			return nil
		}
	})
	if tr != nil {
		lt := tr.attribute("op")
		for _, l := range []string{"ckks.mulrelin", "ckks.rescale", "ckks.rotate_hoisted", "ckks.add"} {
			ph.layers[l+"_ms"] = lt.perOp(l)
		}
		ph.layers["ntt.forward_us"] = b.nttForwardUs()
	}
	return ph, nil
}

// nttForwardUs times ntt.BatchForward directly at the op's ring degree
// and input limb count, as the median of repeated transforms.
func (b *ckksOps) nttForwardUs() float64 {
	rq := b.params.RingQ()
	limbs := b.params.MaxLevel() + 1
	rows := make([][]uint64, limbs)
	for i := range rows {
		rows[i] = make([]uint64, rq.N)
		q := rq.Tables[i].M.Q
		for j := range rows[i] {
			rows[i][j] = b.rng.Uint64() % q
		}
	}
	times := make([]float64, 200)
	for i := range times {
		t0 := time.Now()
		ntt.BatchForward(rq.Tables[:limbs], rows)
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(times)
}
