package poly

import (
	"encoding/binary"
	"sync"
	"testing"
)

// fuzzRing is one small two-limb ring shared by all fuzz iterations.
var fuzzRing = struct {
	once sync.Once
	r    *Ring
}{}

const fuzzN = 32

// FuzzAutomorphismNTT checks the NTT-domain slot permutation against the
// INTT → Automorphism → NTT round trip for a fuzzer-chosen exponent
// (forced odd) and fuzzer-chosen residues.
func FuzzAutomorphismNTT(f *testing.F) {
	f.Add(uint64(5), []byte{})
	f.Add(uint64(2*fuzzN-1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint64(1<<63), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, g uint64, data []byte) {
		fuzzRing.once.Do(func() { fuzzRing.r = testRing(t, fuzzN, 2) })
		r := fuzzRing.r
		if r == nil {
			t.Fatal("fuzz ring construction failed")
		}
		g |= 1
		a := r.NewPoly(2)
		for i := range a.Coeffs {
			q := r.Mod(i).Q
			for j := range a.Coeffs[i] {
				if len(data) >= 8 {
					a.Coeffs[i][j] = binary.LittleEndian.Uint64(data[:8]) % q
					data = data[8:]
				}
			}
		}
		a.IsNTT = true
		got := r.NewPoly(2)
		r.AutomorphismNTT(got, a, g)
		if want := autoNTTRoundTrip(r, a, g); !got.Equal(want) {
			t.Fatalf("g=%d: NTT-domain permutation differs from the round trip", g)
		}
	})
}
