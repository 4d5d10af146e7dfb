// Package stats implements the statistical machinery WeHeY is built on:
// rank-based hypothesis tests (Mann-Whitney U, Spearman correlation,
// Kolmogorov-Smirnov), the special functions backing their p-values,
// empirical distributions, and Monte-Carlo subsampling.
//
// Everything is implemented from scratch on top of the standard library and
// is fully deterministic: every randomized routine takes an explicit
// *rand.Rand.
//
// The tests in this package check the implementations against reference
// values computed with SciPy, and testing/quick property tests check the
// structural invariants (rank sums, symmetry, p-value ranges).
package stats
