// Package measure defines the transport-agnostic measurement records that
// flow from the measurement substrates (the netsim simulator, the loopback
// testbed, or recorded files) into the detection algorithms of
// internal/core and the tomography baselines of internal/tomo.
package measure

import (
	"errors"
	"time"
)

// Path holds the packet-loss measurements M collected along one path
// during a replay (§3.4): the times data packets were transmitted and the
// times loss events were *registered* by whoever measures them (the client
// for UDP, the server — via retransmissions — for TCP). Registration times
// lag and jitter relative to the actual drops; the detection algorithms are
// designed around that noise.
type Path struct {
	// RTT is the path's base round-trip time (used to size the interval
	// sweep of Alg. 1).
	RTT time.Duration
	// Duration is the replay duration covered by the logs.
	Duration time.Duration
	// Tx are the transmission times of data packets (including TCP
	// retransmissions), relative to replay start.
	Tx []time.Duration
	// Loss are the registration times of loss events, relative to replay
	// start.
	Loss []time.Duration
}

// Validate checks structural sanity of the record.
func (p *Path) Validate() error {
	if p.Duration <= 0 {
		return errors.New("measure: non-positive duration")
	}
	if p.RTT <= 0 {
		return errors.New("measure: non-positive RTT")
	}
	if len(p.Loss) > len(p.Tx) {
		return errors.New("measure: more losses than transmissions")
	}
	return nil
}

// LossRate returns the overall loss fraction of the path.
func (p *Path) LossRate() float64 {
	if len(p.Tx) == 0 {
		return 0
	}
	return float64(len(p.Loss)) / float64(len(p.Tx))
}

// Throughput holds per-interval throughput samples (bits/s) for one replay.
type Throughput struct {
	Interval time.Duration
	Samples  []float64
}

// Mean returns the mean of the samples, or 0 when empty.
func (t Throughput) Mean() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Samples {
		s += v
	}
	return s / float64(len(t.Samples))
}

// Delivery is one data arrival at the measuring endpoint.
type Delivery struct {
	At    time.Duration
	Bytes int
}

// BinThroughput converts arrival events in [start, start+dur) into
// per-interval throughput samples (bits/s) with the given interval.
//
// Only complete intervals are sampled: when dur is not a whole multiple of
// interval, arrivals in the partial tail [n·interval, dur) are ignored.
// (They used to be clamped into bin n−1, which inflated that throughput
// sample by up to the tail's share — every sample must cover exactly one
// interval for the per-interval rates to be comparable.)
func BinThroughput(events []Delivery, start, dur, interval time.Duration) Throughput {
	n := int(dur / interval)
	if n < 1 {
		n = 1
	}
	covered := time.Duration(n) * interval
	if covered > dur {
		covered = dur // single-bin fallback when interval > dur
	}
	bytes := make([]int64, n)
	for _, e := range events {
		t := e.At - start
		if t < 0 || t >= covered {
			continue
		}
		idx := int(t / interval)
		if idx >= n { // interval > dur: the single bin covers [0, dur)
			idx = n - 1
		}
		bytes[idx] += int64(e.Bytes)
	}
	out := Throughput{Interval: interval, Samples: make([]float64, n)}
	sec := interval.Seconds()
	for i, b := range bytes {
		out.Samples[i] = float64(b) * 8 / sec
	}
	return out
}

// WeHeIntervals is the number of intervals WeHe divides a replay into when
// computing its throughput CDFs (§2.1).
const WeHeIntervals = 100

// WeHeThroughput bins arrivals into the standard 100 WeHe intervals.
func WeHeThroughput(events []Delivery, start, dur time.Duration) Throughput {
	return BinThroughput(events, start, dur, dur/WeHeIntervals)
}

// SumSamples adds two equally-long sample series element-wise (the
// aggregate Y series of §4.1). Series of different lengths are summed over
// the shorter prefix.
func SumSamples(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] + b[i]
	}
	return out
}
