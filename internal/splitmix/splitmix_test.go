package splitmix

import (
	"math"
	"math/rand"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// TestReferenceVector pins the generator to the published splitmix64
// sequence from state 0, so a transcription error in a constant cannot hide
// behind re-recorded campaign hashes.
func TestReferenceVector(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	var s Source
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("output %d from state 0 = %#016x, want %#016x", i, got, w)
		}
	}
	if Mix(Gamma) != want[0] {
		t.Errorf("Mix(Gamma) = %#016x, want the first output %#016x", Mix(Gamma), want[0])
	}
}

// TestRekeyRewinds pins the property the measurement streams rest on: a key
// names a stream, whatever was drawn before it, and Seed is Rekey.
func TestRekeyRewinds(t *testing.T) {
	draw := func(s *Source) [8]uint64 {
		var out [8]uint64
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	var a, b Source
	a.Rekey(42)
	want := draw(&a)
	for i := 0; i < 1000; i++ {
		b.Uint64()
	}
	b.Rekey(42)
	if got := draw(&b); got != want {
		t.Error("a rekeyed generator remembers earlier draws")
	}
	b.Seed(42)
	if got := draw(&b); got != want {
		t.Error("Seed(42) and Rekey(42) name different streams")
	}
	b.Rekey(43)
	if got := draw(&b); got == want {
		t.Error("keys 42 and 43 name the same stream")
	}
	if s := (Source{}); s.Int63() < 0 {
		t.Error("Int63 returned a negative value")
	}
}

// TestMoments checks the first two moments of 10⁵ uniform and normal draws
// taken through math/rand, each within 4σ of its expectation — a broken
// mixer would pass every byte pin once the pins were re-recorded over it.
func TestMoments(t *testing.T) {
	const n = 100000
	moments := func(draw func() float64) (mean, variance float64) {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := draw()
			sum += x
			sumSq += x * x
		}
		mean = sum / n
		return mean, sumSq/n - mean*mean
	}
	src := &Source{}
	src.Rekey(Mix(1))
	rng := rand.New(src)
	for _, tc := range []struct {
		name                string
		draw                func() float64
		mean, variance, mu4 float64 // mu4 is the fourth central moment
	}{
		{"Float64", rng.Float64, 0.5, 1.0 / 12, 1.0 / 80},
		{"NormFloat64", rng.NormFloat64, 0, 1, 3},
	} {
		mean, variance := moments(tc.draw)
		// The sample mean has variance σ²/n; the sample variance has
		// variance (μ₄ − σ⁴)/n.
		if tol := 4 * math.Sqrt(tc.variance/n); math.Abs(mean-tc.mean) > tol {
			t.Errorf("%s: mean %.5f, want %.5f ± %.5f", tc.name, mean, tc.mean, tol)
		}
		if tol := 4 * math.Sqrt((tc.mu4-tc.variance*tc.variance)/n); math.Abs(variance-tc.variance) > tol {
			t.Errorf("%s: variance %.5f, want %.5f ± %.5f", tc.name, variance, tc.variance, tol)
		}
	}
}
