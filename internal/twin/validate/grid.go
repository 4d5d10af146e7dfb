package validate

import (
	"fmt"
	"time"

	"github.com/nal-epfl/wehey/internal/twin"
)

// TBFTolerance is one grid point's acceptance band. Zero-valued checks are
// skipped (a Poisson point does not pin down its first-drop instant).
type TBFTolerance struct {
	// Loss is the absolute tolerance on the loss fraction.
	Loss float64
	// DelayRel/DelayAbs bound the mean-queue-delay error: the allowed gap
	// is max(DelayAbs, DelayRel·max(pred, meas)).
	DelayRel float64
	DelayAbs time.Duration
	// FirstDropRel/FirstDropAbs bound the first-drop timing the same way;
	// both zero skips the check.
	FirstDropRel float64
	FirstDropAbs time.Duration
}

// TBFPoint is one cell of the validation grid.
type TBFPoint struct {
	Name   string
	Params twin.TBFParams
	Proc   Arrivals
	Seed   int64
	Tol    TBFTolerance
}

// Grid geometry: 1000-byte packets over a 10 s horizon, the paper's two
// throttling-rate scales, burst sized by the rate×50 ms RTT rule, both
// device characters (pure policer and 60 kB shaper), under-, over-, and
// heavily-overloaded, each as CBR and Poisson — plus the degenerate
// zero-rate blackhole and an exactly-critical ρ=1 CBR point.
const (
	gridPacket  = 1000
	gridHorizon = 10 * time.Second
)

// cbrTol: CBR deviations are pure packet granularity, so the bands are
// tight: a couple of packets' worth of loss, a few ms of delay.
func cbrTol() TBFTolerance {
	return TBFTolerance{
		Loss:         0.01,
		DelayRel:     0.10,
		DelayAbs:     3 * time.Millisecond,
		FirstDropRel: 0.15,
		FirstDropAbs: 10 * time.Millisecond,
	}
}

// poissonTol: the fluid model ignores burstiness, which shows up as real
// loss at ρ < 1 and extra queueing everywhere; the bands are wider and the
// (single-sample, exponentially distributed) first-drop instant is not
// checked at all.
func poissonTol() TBFTolerance {
	return TBFTolerance{
		Loss:     0.08,
		DelayRel: 0.35,
		DelayAbs: 40 * time.Millisecond,
	}
}

// DefaultTBFGrid returns the standard validation grid: 26 points covering
// rate × load × device-character × arrival-process, plus the degenerate
// corners. Seeds are fixed so Poisson points are reproducible.
func DefaultTBFGrid() []TBFPoint {
	var pts []TBFPoint
	seed := int64(1)
	for _, rate := range []float64{2e6, 8e6} {
		burst := int(rate / 8 * 0.050) // rate × 50 ms RTT
		for _, rho := range []float64{0.7, 1.3, 1.8} {
			for _, queue := range []int{0, 60000} {
				for _, proc := range []Arrivals{CBR, Poisson} {
					tol := cbrTol()
					if proc == Poisson {
						tol = poissonTol()
					}
					dev := "policer"
					if queue > 0 {
						dev = "shaper"
					}
					pts = append(pts, TBFPoint{
						Name: fmt.Sprintf("%s/%s/rate%.0fM/rho%.1f", dev, proc, rate/1e6, rho),
						Params: twin.TBFParams{
							Rate: rate, Burst: burst, QueueLimit: queue,
							PacketSize: gridPacket, Offered: rho * rate,
							Horizon: gridHorizon,
						},
						Proc: proc,
						Seed: seed,
						Tol:  tol,
					})
					seed++
				}
			}
		}
	}
	// Degenerate corners, CBR so the comparison is near-exact.
	pts = append(pts,
		TBFPoint{
			Name: "blackhole/cbr/rate0",
			Params: twin.TBFParams{
				Rate: 0, Burst: 3000, QueueLimit: 60000,
				PacketSize: gridPacket, Offered: 0.8e6, Horizon: time.Second,
			},
			Proc: CBR, Seed: seed,
			Tol: TBFTolerance{Loss: 0.02, DelayAbs: time.Millisecond,
				FirstDropRel: 0.05, FirstDropAbs: 5 * time.Millisecond},
		},
		TBFPoint{
			Name: "critical/cbr/rho1.0",
			Params: twin.TBFParams{
				Rate: 2e6, Burst: 12500, QueueLimit: 60000,
				PacketSize: gridPacket, Offered: 2e6, Horizon: gridHorizon,
			},
			Proc: CBR, Seed: seed + 1,
			// ρ = 1 exactly: the fluid model predicts a clean system; the
			// packet system must agree to within granularity.
			Tol: TBFTolerance{Loss: 0.01, DelayAbs: 5 * time.Millisecond},
		},
	)
	return pts
}
