package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{2.5758293035489004, 0.995},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

// Closed-form Student-t CDFs for small degrees of freedom.
func tCDF1(t float64) float64 { return 0.5 + math.Atan(t)/math.Pi }
func tCDF2(t float64) float64 { return 0.5 + t/(2*math.Sqrt(2+t*t)) }
func tCDF3(t float64) float64 {
	x := t / math.Sqrt(3)
	return 0.5 + (x/(1+x*x)+math.Atan(x))/math.Pi
}

func TestStudentTCDFClosedForms(t *testing.T) {
	ts := []float64{-5, -2.3, -1, -0.2, 0, 0.5, 1, 1.96, 3.5762, 8}
	for _, tv := range ts {
		if got, want := StudentTCDF(tv, 1), tCDF1(tv); !almostEqual(got, want, 1e-10) {
			t.Errorf("df=1, t=%v: got %v want %v", tv, got, want)
		}
		if got, want := StudentTCDF(tv, 2), tCDF2(tv); !almostEqual(got, want, 1e-10) {
			t.Errorf("df=2, t=%v: got %v want %v", tv, got, want)
		}
		if got, want := StudentTCDF(tv, 3), tCDF3(tv); !almostEqual(got, want, 1e-10) {
			t.Errorf("df=3, t=%v: got %v want %v", tv, got, want)
		}
	}
}

func TestStudentTCDFLimits(t *testing.T) {
	// As df grows, the t distribution approaches the standard normal.
	for _, tv := range []float64{-2, -1, 0, 1, 2} {
		got := StudentTCDF(tv, 1e7)
		want := NormalCDF(tv)
		if !almostEqual(got, want, 1e-6) {
			t.Errorf("df=1e7, t=%v: got %v want normal %v", tv, got, want)
		}
	}
	if got := StudentTCDF(math.Inf(1), 5); got != 1 {
		t.Errorf("t=+Inf: got %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 5); got != 0 {
		t.Errorf("t=-Inf: got %v", got)
	}
	if got := StudentTCDF(0, 7); got != 0.5 {
		t.Errorf("t=0 should be exactly 0.5, got %v", got)
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		df := 1 + 50*rng.Float64()
		tv := -8 + 16*rng.Float64()
		lhs := StudentTCDF(tv, df)
		rhs := 1 - StudentTCDF(-tv, df)
		if !almostEqual(lhs, rhs, 1e-12) {
			t.Fatalf("symmetry violated at t=%v df=%v: %v vs %v", tv, df, lhs, rhs)
		}
	}
}

func TestKolmogorovQ(t *testing.T) {
	// Q(1.0) = 2(e^-2 - e^-8 + e^-18 - ...) ≈ 0.26999967...
	want := 2 * (math.Exp(-2) - math.Exp(-8) + math.Exp(-18) - math.Exp(-32))
	if got := KolmogorovQ(1.0); !almostEqual(got, want, 1e-9) {
		t.Errorf("KolmogorovQ(1) = %v, want %v", got, want)
	}
	if got := KolmogorovQ(0); got != 1 {
		t.Errorf("KolmogorovQ(0) = %v, want 1", got)
	}
	if got := KolmogorovQ(10); got > 1e-20 {
		t.Errorf("KolmogorovQ(10) = %v, want ~0", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.05; l < 3; l += 0.05 {
		v := KolmogorovQ(l)
		if v > prev+1e-12 {
			t.Fatalf("KolmogorovQ not monotone at λ=%v: %v > %v", l, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("KolmogorovQ(%v) = %v outside [0,1]", l, v)
		}
		prev = v
	}
}
