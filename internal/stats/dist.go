package stats

import "math"

// NormalCDF returns P(Z <= z) for a standard normal random variable Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
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
