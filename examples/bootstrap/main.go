// End-to-end CKKS bootstrapping on the functional substrate: a level-0
// ciphertext is refreshed through ModRaise → CoeffToSlot → EvalMod →
// SlotToCoeff — the exact pipeline whose dataflow the CROPHE scheduler
// optimises — and the message survives with measurable precision.
package main

import (
	"fmt"
	"log"
	"math/cmplx"

	"crophe/internal/boot"
	"crophe/internal/ckks"
	"crophe/internal/workload"
)

func main() {
	// Small ring, enough levels for C2S(1) + EvalMod(≈8) + S2C(1).
	params, err := ckks.TestParameters(4, 11, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parameters: N=%d, slots=%d, L=%d\n", params.N(), params.Slots(), params.MaxLevel())

	rng := ckks.NewTestRand(11)
	kg := ckks.NewKeyGenerator(params, rng)
	// Sparse secret: bounds the ModRaise overflow |I| (sparse-packed
	// bootstrapping [14]).
	sk := kg.GenSecretKeySparse(4)
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)

	cfg := boot.BootstrapConfig{K: 4, SineDeg: 63, Rot: workload.RotHybrid, RHyb: 2}
	// First pass collects the rotation amounts the pipeline needs.
	probe := boot.NewBootstrapper(params, enc, ckks.NewEvaluator(params, nil), cfg)
	keys := kg.GenEvaluationKeySet(sk, probe.Rotations())
	eval := ckks.NewEvaluator(params, keys)
	b := boot.NewBootstrapper(params, enc, eval, cfg)
	fmt.Printf("bootstrapper: EvalMod degree %d, level budget %d, %d rotation keys\n",
		cfg.SineDeg, b.LevelBudget(), len(probe.Rotations()))

	encryptor := ckks.NewEncryptor(params, pk, rng)
	decryptor := ckks.NewDecryptor(params, sk)

	// A message at the exhausted level 0.
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(0.3*float64(i%3)-0.3, 0)
	}
	ct, err := ckks.EncryptAtLevel(enc, encryptor, msg, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input ciphertext: level %d (no multiplications left)\n", ct.Level)

	out, err := b.Bootstrap(ct)
	if err != nil {
		log.Fatal(err)
	}
	got := enc.Decode(decryptor.Decrypt(out))
	var worst float64
	for i := range msg {
		if e := cmplx.Abs(got[i] - msg[i]); e > worst {
			worst = e
		}
	}
	fmt.Printf("refreshed ciphertext: level %d, max error %.2e\n", out.Level, worst)
	fmt.Println("the ciphertext can multiply again — bootstrap complete")
}
