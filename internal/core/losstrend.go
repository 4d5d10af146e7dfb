// Package core implements WeHeY's common-bottleneck detection — the
// paper's primary contribution (§4): the throughput-comparison algorithm
// (§4.1), which recognizes per-client throttling, and the loss-trend
// correlation algorithm (Alg. 1, §4.2), which recognizes collective
// throttling; plus the combined detector that runs them in sequence as
// operation (4) of §3.1.
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/stats"
)

// LossTrendConfig parameterizes Alg. 1. The zero value uses the paper's
// settings (FP = 0.05, intervals of 10–50 RTTs, 10-packet minimum).
type LossTrendConfig struct {
	// FP is the acceptable false-positive rate (default 0.05).
	FP float64
	// MinPackets is the minimum transmissions per interval for an interval
	// to be retained (default 10).
	MinPackets int
	// LoRTTs, HiRTTs, StepRTTs define the interval-size sweep in units of
	// the larger path RTT (defaults 10, 50, 5 → 9 sizes).
	LoRTTs, HiRTTs, StepRTTs int
	// MinIntervals is the minimum number of retained intervals an interval
	// size needs to participate in the vote (default 8). A size whose
	// series cannot be formed — e.g. a low-rate trace never reaches the
	// per-interval packet minimum at small σ — is excluded from Σ rather
	// than counted as "not correlated": it carries no evidence either way.
	MinIntervals int
	// Correlation chooses the correlation statistic; the default is
	// Spearman (the ablation benchmarks use Pearson for comparison).
	Correlation CorrelationKind
}

// CorrelationKind selects the correlation statistic used by Alg. 1.
type CorrelationKind int

const (
	// SpearmanCorrelation is the paper's choice: normalized (captures
	// trend, not absolute values) and the least outlier-sensitive.
	SpearmanCorrelation CorrelationKind = iota
	// PearsonCorrelation exists for the ablation study.
	PearsonCorrelation
)

func (c *LossTrendConfig) fill() {
	if c.FP <= 0 {
		c.FP = 0.05
	}
	if c.MinPackets <= 0 {
		c.MinPackets = measure.MinPacketsPerInterval
	}
	if c.LoRTTs == 0 {
		c.LoRTTs = 10
	}
	if c.HiRTTs == 0 {
		c.HiRTTs = 50
	}
	if c.StepRTTs == 0 {
		c.StepRTTs = 5
	}
	if c.MinIntervals <= 0 {
		c.MinIntervals = 8
	}
}

// IntervalVerdict reports the Spearman analysis at one interval size.
type IntervalVerdict struct {
	Sigma      time.Duration
	Intervals  int     // retained intervals
	Admissible bool    // enough intervals to participate in the vote
	Rho        float64 // correlation coefficient (NaN if not computable)
	P          float64 // p-value (1 if not computable)
	Correlated bool    // p < FP
}

// LossTrendResult is the outcome of the loss-trend correlation algorithm.
type LossTrendResult struct {
	CommonBottleneck bool
	Correlations     int // admissible sizes whose correlation was significant
	Sizes            int // admissible interval sizes (|Σ|)
	PerSize          []IntervalVerdict
}

// LossTrendCorrelation implements Alg. 1: for each interval size σ between
// 10 and 50 path RTTs it builds the two loss-rate time series, tests their
// Spearman correlation against the null hypothesis of no correlation, and
// declares a common bottleneck when more than a fraction 1−FP of the
// interval sizes show significant positive correlation.
func LossTrendCorrelation(m1, m2 *measure.Path, cfg LossTrendConfig) (LossTrendResult, error) {
	cfg.fill()
	if err := m1.Validate(); err != nil {
		return LossTrendResult{}, fmt.Errorf("core: path 1: %w", err)
	}
	if err := m2.Validate(); err != nil {
		return LossTrendResult{}, fmt.Errorf("core: path 2: %w", err)
	}
	rtt := measure.MaxRTT(m1, m2)
	sweep := measure.IntervalSweep(rtt, cfg.LoRTTs, cfg.HiRTTs, cfg.StepRTTs)
	series := measure.NewLossSweep(m1, m2, sweep, cfg.MinPackets)
	res := LossTrendResult{PerSize: make([]IntervalVerdict, 0, len(sweep))}
	for i, sigma := range sweep {
		v := IntervalVerdict{Sigma: sigma, P: 1}
		r1, r2 := series.Rates(i)
		v.Intervals = len(r1)
		v.Admissible = v.Intervals >= cfg.MinIntervals
		switch cfg.Correlation {
		case PearsonCorrelation:
			if rho, err := stats.Pearson(r1, r2); err == nil && len(r1) >= 4 {
				v.Rho = rho
				v.P = pearsonP(rho, len(r1))
			}
		default:
			if sp, err := stats.Spearman(r1, r2, stats.Greater); err == nil {
				v.Rho = sp.Rho
				v.P = sp.P
			}
		}
		v.Correlated = v.Admissible && v.P < cfg.FP
		if v.Admissible {
			res.Sizes++
			if v.Correlated {
				res.Correlations++
			}
		}
		res.PerSize = append(res.PerSize, v)
	}
	// At least a third of the sweep must be analyzable; otherwise the
	// measurements cannot support a conclusion at all.
	if res.Sizes < (len(sweep)+2)/3 {
		res.CommonBottleneck = false
		return res, nil
	}
	res.CommonBottleneck = float64(res.Correlations) > (1-cfg.FP)*float64(res.Sizes)
	return res, nil
}

// pearsonP computes the one-sided (positive) p-value of a Pearson
// correlation via the same t transform used for Spearman.
func pearsonP(rho float64, n int) float64 {
	df := float64(n - 2)
	if df <= 0 {
		return 1
	}
	if rho >= 1 {
		return 0
	}
	if rho <= -1 {
		return 1
	}
	t := rho * math.Sqrt(df/(1-rho*rho))
	return 1 - stats.StudentTCDF(t, df)
}
