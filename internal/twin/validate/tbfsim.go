// Package validate is the equivalence harness between the analytical twin
// (internal/twin) and the simulator it models: every model prediction is
// swept against packet-level (internal/netsim) ground truth under
// per-point tolerance bands. A band violation means one of the two sides
// regressed — the twin's math or the simulator's mechanics — which is the
// point: two independent oracles disagreeing is a much louder failure than
// either one drifting alone.
package validate

import (
	"math"
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/netsim"
	"github.com/nal-epfl/wehey/internal/twin"
)

// Arrivals selects the offered traffic's arrival process.
type Arrivals string

const (
	// CBR offers one packet every PacketSize·8/Offered seconds — the
	// fluid model's own geometry, so deviations are pure packet
	// granularity.
	CBR Arrivals = "cbr"
	// Poisson offers packets with exponential inter-arrivals at the same
	// mean rate. The fluid model ignores burstiness, so these points get
	// wider tolerance bands.
	Poisson Arrivals = "poisson"
)

// TBFMeasurement is what the packet simulator actually measured for one
// grid point — the same quantities twin.TBFPrediction predicts.
type TBFMeasurement struct {
	LossRate       float64
	MeanQueueDelay time.Duration
	Drops          bool
	FirstDrop      time.Duration
}

// RunTBFPoint replays one TBFParams point through netsim.RateLimiter:
// a single differentiated aggregate offered to the TBF with a counting
// sink behind it. Arrivals stop at the horizon; the engine then runs long
// enough for the queue to drain, so every accepted packet's queueing delay
// is observed. Loss is accounted against offered bytes, exactly like the
// fluid model.
func RunTBFPoint(params twin.TBFParams, proc Arrivals, seed int64) TBFMeasurement {
	var eng netsim.Engine

	var fwdPkts, droppedBytes int64
	var queuedSum time.Duration
	firstDrop := time.Duration(-1)

	sink := netsim.HopFunc(func(pkt *netsim.Packet) {
		fwdPkts++
		queuedSum += pkt.QueuedFor
		eng.FreePacket(pkt)
	})
	rl := netsim.NewRateLimiter(&eng, "twin-tbf", params.Rate, params.Burst, params.QueueLimit, sink)
	rl.OnDrop = func(pkt *netsim.Packet, _ string) {
		droppedBytes += int64(pkt.Size)
		if firstDrop < 0 {
			firstDrop = eng.Now()
		}
	}

	times := arrivalTimes(proc, params.PacketSize, params.Offered, params.Horizon, seed)
	offeredBytes := int64(len(times)) * int64(params.PacketSize)
	eng.ScheduleSeries(times, func(int) {
		pkt := eng.AllocPacket()
		pkt.Size = params.PacketSize
		pkt.Class = netsim.ClassDifferentiated
		pkt.SentAt = eng.Now()
		rl.Send(pkt)
	})

	// Let the queue drain after arrivals stop: QueueLimit bytes at the
	// token rate, plus slack for rounding.
	drain := time.Second
	if params.Rate > 0 {
		drain += time.Duration(float64(params.QueueLimit) / (params.Rate / 8) * float64(time.Second))
	}
	eng.Run(params.Horizon + drain)

	m := TBFMeasurement{}
	if offeredBytes > 0 {
		m.LossRate = float64(droppedBytes) / float64(offeredBytes)
	}
	if fwdPkts > 0 {
		m.MeanQueueDelay = queuedSum / time.Duration(fwdPkts)
	}
	if firstDrop >= 0 {
		m.Drops = true
		m.FirstDrop = firstDrop
	}
	if math.IsNaN(m.LossRate) {
		m.LossRate = 0
	}
	return m
}

// arrivalTimes is the arrival schedule over [0, horizon) of size-byte
// packets offered at rate bit/s: evenly spaced for CBR, exponential gaps
// drawn from a generator seeded with seed for Poisson.
func arrivalTimes(proc Arrivals, size int, rate float64, horizon time.Duration, seed int64) []time.Duration {
	var times []time.Duration
	mean := float64(size) * 8 / rate // seconds
	switch proc {
	case Poisson:
		rng := rand.New(rand.NewSource(seed))
		for t := 0.0; ; {
			at := time.Duration(t * float64(time.Second))
			if at >= horizon {
				break
			}
			times = append(times, at)
			t += rng.ExpFloat64() * mean
		}
	default: // CBR
		gap := time.Duration(mean * float64(time.Second))
		if gap <= 0 {
			gap = 1
		}
		for at := time.Duration(0); at < horizon; at += gap {
			times = append(times, at)
		}
	}
	return times
}
