package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRelMeanDiff(t *testing.T) {
	a := []float64{4, 4, 4} // mean 4
	b := []float64{2, 2, 2} // mean 2
	if got := RelMeanDiff(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("RelMeanDiff = %v, want 0.5", got)
	}
	if got := RelMeanDiff(b, a); !almostEqual(got, -0.5, 1e-12) {
		t.Errorf("RelMeanDiff = %v, want -0.5", got)
	}
	if got := RelMeanDiff([]float64{0}, []float64{0}); got != 0 {
		t.Errorf("zero means: %v", got)
	}
	// Antisymmetric when both means are positive? No — denominator is the
	// max, so f(a,b) = -f(b,a) holds exactly. Verify on random data.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64() + 0.1, rng.Float64() + 0.1}
		y := []float64{rng.Float64() + 0.1, rng.Float64() + 0.1}
		if !almostEqual(RelMeanDiff(x, y), -RelMeanDiff(y, x), 1e-12) {
			t.Fatal("RelMeanDiff not antisymmetric")
		}
	}
}

func TestHalfSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	half := HalfSample(rng, xs)
	if len(half) != 4 { // ⌈7/2⌉
		t.Fatalf("len = %d, want 4", len(half))
	}
	// All elements must come from xs, without replacement.
	seen := map[float64]int{}
	for _, v := range half {
		seen[v]++
		if v < 1 || v > 7 {
			t.Fatalf("foreign element %v", v)
		}
	}
	for v, c := range seen {
		if c > 1 {
			t.Fatalf("element %v sampled %d times (with replacement?)", v, c)
		}
	}
}

func TestODiffCentersNearRelMeanDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = 10 + rng.NormFloat64()*0.1
		y[i] = 5 + rng.NormFloat64()*0.1
	}
	od := ODiff(rng, x, y, 500)
	if len(od) != 500 {
		t.Fatalf("len = %d", len(od))
	}
	if got, want := Mean(od), RelMeanDiff(x, y); math.Abs(got-want) > 0.01 {
		t.Errorf("ODiff mean = %v, want ≈%v", got, want)
	}
}
