package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestRegIncBetaClosedForms(t *testing.T) {
	cases := []struct {
		name    string
		a, b, x float64
		want    float64
	}{
		{"I_x(1,1)=x", 1, 1, 0.3, 0.3},
		{"I_x(1,1)=x mid", 1, 1, 0.5, 0.5},
		{"I_x(2,1)=x^2", 2, 1, 0.4, 0.16},
		{"I_x(3,1)=x^3", 3, 1, 0.7, 0.343},
		{"I_x(1,2)=1-(1-x)^2", 1, 2, 0.25, 1 - 0.75*0.75},
		{"I_x(1,5)=1-(1-x)^5", 1, 5, 0.1, 1 - math.Pow(0.9, 5)},
		{"symmetric a=b at 0.5", 4, 4, 0.5, 0.5},
		{"symmetric a=b at 0.5 half-int", 2.5, 2.5, 0.5, 0.5},
		// I_x(2,2) = x^2 (3-2x)
		{"I_x(2,2)", 2, 2, 0.3, 0.09 * (3 - 0.6)},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: RegIncBeta(%v,%v,%v) = %v, want %v", c.name, c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBoundaries(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("x=0: got %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("x=1: got %v, want 1", got)
	}
	if got := RegIncBeta(-1, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("a<0: got %v, want NaN", got)
	}
	if got := RegIncBeta(2, 3, math.NaN()); !math.IsNaN(got) {
		t.Errorf("x=NaN: got %v, want NaN", got)
	}
}

func TestRegIncBetaSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := 0.5 + 10*rng.Float64()
		b := 0.5 + 10*rng.Float64()
		x := rng.Float64()
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return almostEqual(lhs, rhs, 1e-10)
	}
	for i := 0; i < 500; i++ {
		if !f() {
			t.Fatalf("symmetry I_x(a,b) = 1 - I_{1-x}(b,a) violated on iteration %d", i)
		}
	}
}

func TestRegIncBetaMonotoneInX(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.5 + 5*rng.Float64()
		b := 0.5 + 5*rng.Float64()
		prev := 0.0
		for x := 0.0; x <= 1.0; x += 0.01 {
			v := RegIncBeta(a, b, x)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
