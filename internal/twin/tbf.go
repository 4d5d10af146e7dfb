// Package twin holds the analytical token-bucket twin: a closed-form fluid
// model that predicts what the packet-level simulator (internal/netsim)
// will measure at one policer or shaper, without running it. It answers
// "what loss rate and queueing delay will this TBF show" instantly, and it
// acts as a second oracle — internal/twin/validate sweeps the model against
// simulation ground truth, so a regression in either the sim or the math
// shows up as a tolerance violation rather than silently shifting results.
package twin

import (
	"math"
	"time"
)

// TBFParams describes a token-bucket filter offered a fixed-rate aggregate,
// mirroring netsim.RateLimiter's configuration plus the offered load.
type TBFParams struct {
	// Rate is the token replenishment rate in bits/s. Rate <= 0 models the
	// zero-rate blackhole: the initial burst forwards, everything after
	// drops (netsim.RateLimiter's documented semantics).
	Rate float64
	// Burst is the token bucket size in bytes.
	Burst int
	// QueueLimit is the TBF queue size in bytes; 0 = pure policer.
	QueueLimit int
	// PacketSize is the size of every offered packet in bytes. The fluid
	// model is packet-size-agnostic except for first-drop timing and the
	// oversized-packet rule (PacketSize > Burst can never forward).
	PacketSize int
	// Offered is the aggregate offered load in bits/s.
	Offered float64
	// Horizon is the finite observation window: arrivals run over
	// [0, Horizon) and loss is accounted against arrivals in that window.
	Horizon time.Duration
}

// TBFPrediction is the fluid model's steady-state answer for one TBFParams
// point. The model treats traffic as a continuous fluid, so it is exact up
// to packet granularity: expect deviations on the order of one packet's
// worth of bytes or one inter-arrival time (the validate harness's
// tolerance bands quantify this).
type TBFPrediction struct {
	// LossRate is the fraction of offered bytes dropped over the horizon,
	// in [0, 1]. As Horizon → ∞ with Offered > Rate this tends to
	// 1 − Rate/Offered (= 1 − 1/ρ).
	LossRate float64
	// MeanQueueDelay is the average time a forwarded packet spent in the
	// TBF queue (zero for a pure policer and for underload).
	MeanQueueDelay time.Duration
	// Drops reports whether the model predicts any drop within the horizon.
	Drops bool
	// FirstDrop is the predicted time of the first drop, valid only when
	// Drops is true.
	FirstDrop time.Duration
}

// PredictTBF evaluates the fluid token-bucket model.
//
// Writing A = Offered/8 and R = Rate/8 (bytes/s), B = Burst, Q = QueueLimit
// (bytes), the overloaded case A > R evolves in three phases:
//
//	phase 1 [0, tB):      tokens drain at A−R; empty at tB = B/(A−R).
//	                      Everything forwards with zero delay.
//	phase 2 [tB, tFill):  the queue fills at A−R; full at
//	                      tFill = (B+Q)/(A−R). Arrivals are accepted and
//	                      wait q(t)/R behind the backlog, averaging Q/(2R).
//	phase 3 [tFill, …):   the queue holds Q; arrivals are accepted at rate
//	                      R and dropped at A−R, accepted ones wait Q/R.
//
// Loss over the horizon T is the phase-3 overflow (A−R)·(T−tFill) divided
// by the offered volume A·T. The first drop lands when the queue can no
// longer take a whole packet — occupancy Q−P — at (B+Q−P)/(A−R); a queue
// smaller than one packet never holds anything, so the first drop moves up
// to token exhaustion at (B−P)/(A−R).
func PredictTBF(p TBFParams) TBFPrediction {
	A := p.Offered / 8 // offered bytes/s
	R := p.Rate / 8    // drain bytes/s
	B := float64(p.Burst)
	Q := float64(p.QueueLimit)
	P := float64(p.PacketSize)
	T := p.Horizon.Seconds()
	if A <= 0 || T <= 0 {
		return TBFPrediction{}
	}

	if p.PacketSize > p.Burst {
		// Oversized packets can never earn enough tokens; the limiter drops
		// them on arrival (netsim does the same, as does tc-tbf by refusing
		// the configuration).
		return TBFPrediction{LossRate: 1, Drops: true, FirstDrop: 0}
	}

	if R <= 0 {
		// Zero-rate blackhole: exactly the initial burst forwards. The
		// first drop is the first arrival past floor(B/P) whole packets.
		offered := A * T
		if offered <= B {
			return TBFPrediction{}
		}
		burstPkts := math.Floor(B / P)
		return TBFPrediction{
			LossRate:  (offered - burstPkts*P) / offered,
			Drops:     true,
			FirstDrop: secs(burstPkts * P / A),
		}
	}

	if A <= R {
		// Underload: tokens never stay exhausted, nothing queues or drops.
		return TBFPrediction{}
	}

	excess := A - R
	tB := B / excess
	tFill := (B + Q) / excess

	// First drop: queue occupancy reaches Q−P (or tokens reach P for a
	// sub-packet queue). Clamp at zero — with B < P handled above, B ≥ P
	// keeps this non-negative, but guard against float dust.
	var tDrop float64
	if Q >= P {
		tDrop = (B + Q - P) / excess
	} else {
		tDrop = (B - P) / excess
	}
	if tDrop < 0 {
		tDrop = 0
	}
	drops := tDrop < T

	// Loss: overflow beyond tFill, none before.
	var lost float64
	if T > tFill {
		lost = excess * (T - tFill)
	}
	loss := lost / (A * T)

	// Mean queue delay over forwarded bytes, phase by phase. Arrivals stop
	// at T but queued bytes still drain, so every accepted byte is
	// eventually forwarded and the phase-2/3 contributions count in full.
	var delaySum, fwdBytes float64
	fwdBytes = A * math.Min(T, tB) // phase 1, zero delay
	if T > tB {
		t2 := math.Min(T, tFill) - tB // time spent in phase 2
		qEnd := excess * t2           // backlog reached by the end of it
		accepted := A * t2
		delaySum += accepted * qEnd / (2 * R)
		fwdBytes += accepted
	}
	if T > tFill {
		accepted := R * (T - tFill)
		delaySum += accepted * Q / R
		fwdBytes += accepted
	}

	pred := TBFPrediction{
		LossRate: loss,
		Drops:    drops,
	}
	if drops {
		pred.FirstDrop = secs(tDrop)
	}
	if fwdBytes > 0 {
		pred.MeanQueueDelay = secs(delaySum / fwdBytes)
	}
	return pred
}

// secs converts a float64 second count to a time.Duration.
func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
