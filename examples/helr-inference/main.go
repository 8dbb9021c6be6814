// Encrypted logistic-regression inference, the core computation of the
// HELR1024 workload [24]: scores = sigmoid(X·w) are computed entirely
// under encryption — the feature matrix multiplies the encrypted weight
// vector with BSGS PtMatVecMult (Algorithm 1) and the sigmoid is a
// Chebyshev polynomial evaluated with HMult/CMult cascades — then
// decrypted and compared against the plaintext model.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"crophe/internal/boot"
	"crophe/internal/ckks"
	"crophe/internal/workload"
)

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func main() {
	// 32 padded features (HELR pads 196 → 256; we scale down to keep the
	// example fast), one ciphertext carrying the weights.
	const features = 32
	params, err := ckks.TestParameters(6, 7, 2) // 32 slots, 7 levels
	if err != nil {
		log.Fatal(err)
	}
	if params.Slots() != features {
		log.Fatalf("parameter slots %d != features", params.Slots())
	}

	// A synthetic trained model and a batch row encoded as a matrix:
	// row j of X is one sample, so X·w gives every sample's logit at once.
	rng := rand.New(rand.NewSource(42))
	w := make([]complex128, features)
	for i := range w {
		w[i] = complex(rng.NormFloat64()*0.4, 0)
	}
	X := make([][]complex128, features)
	for j := range X {
		X[j] = make([]complex128, features)
		for i := range X[j] {
			X[j][i] = complex(rng.Float64(), 0) // pixel intensities in [0,1)
		}
	}
	lt, err := boot.NewLinearTransform(X)
	if err != nil {
		log.Fatal(err)
	}

	// Degree-7 sigmoid approximation on the logit range.
	sig := boot.FitChebyshev(sigmoid, -8, 8, 7)

	// Keys: BSGS rotations plus the hoisting strategy's baby steps.
	rotSet := map[int]bool{}
	for _, r := range lt.Rotations() {
		rotSet[r] = true
	}
	for _, r := range boot.BabyKeys(lt.N1, workload.RotHoisted, 0) {
		rotSet[r] = true
	}
	var rotations []int
	for r := range rotSet {
		rotations = append(rotations, r)
	}
	// Key-generation order feeds the deterministic test PRNG; sort so
	// repeated runs produce identical keys and ciphertexts.
	sort.Ints(rotations)

	crand := ckks.NewTestRand(4242)
	kg := ckks.NewKeyGenerator(params, crand)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := kg.GenEvaluationKeySet(sk, rotations)
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, pk, crand)
	decryptor := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, keys)

	ctW, err := ckks.EncryptAtLevel(enc, encryptor, w, params.MaxLevel())
	if err != nil {
		log.Fatal(err)
	}

	// Encrypted inference: logits = X·w, scores = sigmoid(logits).
	ctLogits, err := lt.Evaluate(eval, enc, ctW, workload.RotHoisted, 0)
	if err != nil {
		log.Fatal(err)
	}
	ctScores, err := boot.EvaluateChebyshev(eval, sig, ctLogits)
	if err != nil {
		log.Fatal(err)
	}

	got := enc.Decode(decryptor.Decrypt(ctScores))

	// Plaintext reference.
	var worst float64
	agree := 0
	fmt.Println("sample  plaintext  encrypted  class")
	for j := 0; j < features; j++ {
		var logit float64
		for i := 0; i < features; i++ {
			logit += real(X[j][i]) * real(w[i])
		}
		want := sigmoid(logit)
		gotV := real(got[j])
		if e := math.Abs(gotV - want); e > worst {
			worst = e
		}
		if (gotV > 0.5) == (want > 0.5) {
			agree++
		}
		if j < 6 {
			fmt.Printf("%5d %10.4f %10.4f  %v\n", j, want, gotV, gotV > 0.5)
		}
	}
	fmt.Printf("...\nmax score error %.2e, class agreement %d/%d\n", worst, agree, features)
	fmt.Printf("levels consumed: %d → %d (matvec 1, sigmoid %d)\n",
		params.MaxLevel(), ctScores.Level, params.MaxLevel()-1-ctScores.Level)
	if agree != features {
		log.Fatal("encrypted inference disagrees with plaintext model")
	}
}
