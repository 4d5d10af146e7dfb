package stats

import "math"

// NormalCDF returns P(Z <= z) for a standard normal random variable Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, for p in (0, 1).
// It uses the Acklam rational approximation refined by one Halley step,
// accurate to ~1e-15 over the full range.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0: //lint:ignore floateq exact boundary maps to -Inf
			return math.Inf(-1)
		case p == 1: //lint:ignore floateq exact boundary maps to +Inf
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients of the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// StudentTCDF returns P(T <= t) for a Student-t random variable with df
// degrees of freedom.
func StudentTCDF(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	half := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t >= 0 {
		return 1 - half
	}
	return half
}

// KolmogorovQ evaluates the Kolmogorov survival function
//
//	Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²),
//
// the asymptotic tail probability of the (scaled) two-sample KS statistic.
func KolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const (
		eps1    = 1e-6 // relative tolerance on successive terms
		eps2    = 1e-12
		maxIter = 200
	)
	sum := 0.0
	prev := 0.0
	sign := 1.0
	for j := 1; j <= maxIter; j++ {
		term := sign * 2 * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) <= eps1*prev || math.Abs(term) <= eps2*sum {
			return clampProb(sum)
		}
		prev = math.Abs(term)
		sign = -sign
	}
	return clampProb(sum)
}

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}
