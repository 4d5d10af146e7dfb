package validate

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/twin"
)

// TBFReport is one TBF grid point's verdict: prediction, measurement, and
// the tolerance violations (empty = the twin and the simulator agree).
type TBFReport struct {
	Point      TBFPoint
	Pred       twin.TBFPrediction
	Meas       TBFMeasurement
	Violations []string
}

// Report is a full sweep's outcome.
type Report struct {
	TBF    []TBFReport
	Hybrid []HybridReport
}

// ViolationCount sums tolerance violations across all sweeps.
func (r Report) ViolationCount() int {
	n := 0
	for _, p := range r.TBF {
		n += len(p.Violations)
	}
	for _, p := range r.Hybrid {
		n += len(p.Violations)
	}
	return n
}

// EvalTBFPoint simulates one grid point and checks it against the fluid
// model.
func EvalTBFPoint(pt TBFPoint) TBFReport {
	meas := RunTBFPoint(pt.Params, pt.Proc, pt.Seed)
	pred := twin.PredictTBF(pt.Params)
	r := TBFReport{Point: pt, Pred: pred, Meas: meas}

	// Drops agreement: a model that predicts drops must see them in the
	// sim. The converse is only a violation when the sim's loss exceeds
	// the band — Poisson burstiness produces rare drops at ρ < 1 that a
	// fluid model is structurally blind to, and the loss tolerance is the
	// statement of how blind it is allowed to be.
	if pred.Drops && !meas.Drops {
		r.Violations = append(r.Violations, "drops: model predicts drops, sim saw none")
	}
	if !pred.Drops && meas.Drops && meas.LossRate > pt.Tol.Loss {
		r.Violations = append(r.Violations,
			fmt.Sprintf("drops: model predicts none, sim lost %.4f (> %.4f band)",
				meas.LossRate, pt.Tol.Loss))
	}
	if d := math.Abs(pred.LossRate - meas.LossRate); d > pt.Tol.Loss {
		r.Violations = append(r.Violations,
			fmt.Sprintf("loss: model %.4f, sim %.4f (|Δ| %.4f > %.4f)",
				pred.LossRate, meas.LossRate, d, pt.Tol.Loss))
	}
	if band := durBand(pred.MeanQueueDelay, meas.MeanQueueDelay, pt.Tol.DelayRel, pt.Tol.DelayAbs); band != "" {
		r.Violations = append(r.Violations, "mean queue delay: "+band)
	}
	checkFirstDrop := pred.Drops && meas.Drops &&
		(pt.Tol.FirstDropRel > 0 || pt.Tol.FirstDropAbs > 0)
	if checkFirstDrop {
		if band := durBand(pred.FirstDrop, meas.FirstDrop, pt.Tol.FirstDropRel, pt.Tol.FirstDropAbs); band != "" {
			r.Violations = append(r.Violations, "first drop: "+band)
		}
	}
	return r
}

// durBand checks |pred−meas| ≤ max(abs, rel·max(pred, meas)) and renders
// the violation when it fails ("" = within band).
func durBand(pred, meas time.Duration, rel float64, abs time.Duration) string {
	diff := pred - meas
	if diff < 0 {
		diff = -diff
	}
	allowed := abs
	bigger := pred
	if meas > bigger {
		bigger = meas
	}
	if relBand := time.Duration(rel * float64(bigger)); relBand > allowed {
		allowed = relBand
	}
	if diff <= allowed {
		return ""
	}
	return fmt.Sprintf("model %v, sim %v (|Δ| %v > %v)", pred, meas, diff, allowed)
}

// Run sweeps the default TBF and hybrid grids, one worker per CPU.
func Run() Report {
	grid := DefaultTBFGrid()
	hybrid := DefaultHybridGrid()
	workers := runtime.NumCPU()
	return Report{
		TBF: experiments.ForEach(len(grid), workers, func(i int) TBFReport {
			return EvalTBFPoint(grid[i])
		}),
		Hybrid: experiments.ForEach(len(hybrid), workers, func(i int) HybridReport {
			return EvalHybridPoint(hybrid[i])
		}),
	}
}

// Render formats the report as a fixed-order text table, one line per
// point, with violations spelled out underneath — the wehey-twin CLI and
// the CI job print this.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TBF fluid model vs netsim (%d points)\n", len(r.TBF))
	for _, p := range r.TBF {
		status := "ok"
		if len(p.Violations) > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-34s %-4s loss %.4f/%.4f  delay %v/%v\n",
			p.Point.Name, status, p.Pred.LossRate, p.Meas.LossRate,
			p.Pred.MeanQueueDelay.Round(time.Microsecond),
			p.Meas.MeanQueueDelay.Round(time.Microsecond))
		for _, v := range p.Violations {
			fmt.Fprintf(&b, "      violation: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "hybrid fluid background vs packet background (%d points)\n", len(r.Hybrid))
	for _, p := range r.Hybrid {
		status := "ok"
		if len(p.Violations) > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-34s %-4s bg-loss %.4f/%.4f  fg p95 %v/%v  events %.0fx\n",
			p.Point.Name, status, p.Packet.BgLossRate, p.Fluid.BgLossRate,
			p.Packet.FgP95.Round(time.Microsecond), p.Fluid.FgP95.Round(time.Microsecond),
			p.EventRatio)
		for _, v := range p.Violations {
			fmt.Fprintf(&b, "      violation: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "violations: %d\n", r.ViolationCount())
	return b.String()
}
