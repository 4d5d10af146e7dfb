// Package wehey is the public API of WeHeY, a system that localizes
// traffic differentiation (Shmeis et al., ACM IMC 2023). Where WeHe only
// detects that an original and a bit-inverted replay achieve different
// throughput *somewhere* on a path, WeHeY determines whether the
// differentiation happened inside the client's ISP.
//
// A localization run performs the four operations of the paper's §3.1:
//
//  1. Topology construction — pick two servers whose paths to the client
//     converge exactly once, inside the client's ISP (Localizer.Servers,
//     backed by a topology.DB built by the TC module).
//  2. Simultaneous replays — replay the original and bit-inverted traces
//     on both paths at once, collecting throughput and loss measurements
//     (the ReplaySession interface; sessions exist for the discrete-event
//     simulator and the loopback testbed).
//  3. Differentiation confirmation — WeHe's KS-based detector must flag
//     both paths.
//  4. Common-bottleneck detection — the throughput comparison (per-client
//     throttling) and loss-trend correlation (collective throttling)
//     algorithms of §4.
//
// The outcome is deliberately one-sided, like the paper's: either concrete
// evidence that the differentiation happens within the client's ISP, or no
// additional information beyond WeHe's detection.
package wehey

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/topology"
	"github.com/nal-epfl/wehey/internal/wehe"
)

// PathReplay is one path's worth of measurements from a replay.
type PathReplay struct {
	// Throughput holds the client-side per-interval throughput samples.
	Throughput measure.Throughput
	// Measurements holds the packet-loss record (nil for replays where it
	// was not collected, e.g. the bit-inverted control).
	Measurements *measure.Path
}

// ReplaySession abstracts the measurement substrate. Implementations exist
// for the discrete-event simulator (SimSession) and for the loopback
// testbed; a production implementation would drive real WeHe servers.
type ReplaySession interface {
	// SingleReplay replays one trace on the detection path p0 and returns
	// its measurements. original selects the original vs the bit-inverted
	// trace.
	SingleReplay(original bool) (PathReplay, error)
	// SimultaneousReplay replays on the two converging paths p1, p2 at
	// once and returns their measurements in path order.
	SimultaneousReplay(original bool) ([2]PathReplay, error)
}

// Verdict is the outcome of a localization run.
type Verdict struct {
	// WeHeDetected reports WeHe's end-to-end differentiation verdict on
	// p0. When false, there is nothing to localize.
	WeHeDetected bool
	// Confirmed reports whether both p1 and p2 showed differentiation
	// during the simultaneous replays (operation 3).
	Confirmed bool
	// Evidence classifies what the common-bottleneck detector found.
	Evidence core.Evidence
	// LocalizedToISP is the headline answer: true iff the run produced
	// concrete evidence that the differentiation happens within the
	// client's ISP.
	LocalizedToISP bool
	// Detail carries the underlying algorithm outputs for reporting.
	Detail core.DetectorResult
	// X and Y are the §4.1 throughput sample sets (single and aggregate
	// simultaneous), kept for rendering and audit.
	X, Y []float64
	// LossRates are p1's and p2's loss rates during the original
	// simultaneous replay (zero for a path without Measurements, and both
	// zero when that replay did not run).
	LossRates [2]float64
}

// String summarizes the verdict in one line.
func (v Verdict) String() string {
	switch {
	case !v.WeHeDetected:
		return "no differentiation detected (nothing to localize)"
	case v.LocalizedToISP:
		return fmt.Sprintf("differentiation localized to the client's ISP (%s)", v.Evidence)
	default:
		return "differentiation detected, but no evidence it happens within the client's ISP"
	}
}

// WriteDetail prints what the common-bottleneck detector computed: the
// throughput comparison's p value and decision, then the loss-trend
// correlation's vote with one row per interval size σ. A detector that
// did not run says so.
func (v Verdict) WriteDetail(w io.Writer) {
	if tc := v.Detail.Throughput; tc != nil {
		fmt.Fprintf(w, "throughput comparison: p = %.4g → common bottleneck = %v\n", tc.P, tc.CommonBottleneck)
	} else {
		fmt.Fprintln(w, "throughput comparison: not run")
	}
	lt := v.Detail.LossTrend
	if lt == nil {
		fmt.Fprintln(w, "loss-trend correlation: not run")
		return
	}
	fmt.Fprintf(w, "loss-trend correlation: %d/%d interval sizes correlated → common bottleneck = %v\n",
		lt.Correlations, lt.Sizes, lt.CommonBottleneck)
	for _, s := range lt.PerSize {
		fmt.Fprintf(w, "  σ=%-8v intervals=%-4d ρ=%+.3f p=%.4f correlated=%v\n",
			s.Sigma, s.Intervals, s.Rho, s.P, s.Correlated)
	}
}

// Localizer runs WeHeY localizations. All fields are optional except Rand;
// a nil TopologyDB skips server selection (the session is assumed
// pre-wired), and an empty TDiff skips the throughput comparison (the
// loss-trend correlation still runs).
type Localizer struct {
	// Rand drives the Monte-Carlo subsampling; required.
	Rand *rand.Rand
	// TopologyDB is the TC module's output, used by Servers.
	TopologyDB *topology.DB
	// History is the past-tests database from which T_diff distributions
	// are derived per client/app/carrier.
	History *wehe.History
	// Detector configures the two detection algorithms; zero value = the
	// paper's settings.
	Detector core.DetectorConfig
	// Detection configures WeHe's KS-based detector.
	Detection wehe.DetectionConfig
}

// ErrNoTopology is returned when no suitable server pair exists for a
// client.
var ErrNoTopology = errors.New("wehey: no suitable topology for client")

// ErrTopologyChanged is returned when the post-replay traceroutes show the
// topology was no longer suitable (§3.4 step 4): the measurements are
// discarded and the topology database should be refreshed.
var ErrTopologyChanged = errors.New("wehey: topology no longer suitable; measurements discarded")

// TopologyVerifier is optionally implemented by sessions that can re-check
// topology suitability after the replays — §3.4 step 4: "the server ...
// verifies that the topology was still suitable at the end of the replays.
// If not, it discards the measurements and updates the topology database."
type TopologyVerifier interface {
	// VerifyTopology reports whether the paths still converge exactly once
	// inside the target network area.
	VerifyTopology() (bool, error)
}

// Servers returns a server pair forming a suitable topology with the
// client (operation 1).
func (l *Localizer) Servers(clientIP string) (topology.ServerPair, error) {
	if l.TopologyDB == nil {
		return topology.ServerPair{}, ErrNoTopology
	}
	entry, ok := l.TopologyDB.Lookup(clientIP)
	if !ok || len(entry.Pairs) == 0 {
		return topology.ServerPair{}, fmt.Errorf("%w: %s", ErrNoTopology, clientIP)
	}
	return entry.Pairs[0], nil
}

// TDiff returns the T_diff distribution for a client/app/carrier from the
// configured history (empty when no history is configured).
func (l *Localizer) TDiff(client, app, carrier string) []float64 {
	if l.History == nil {
		return nil
	}
	return l.History.TDiff(client, app, carrier)
}

// Localize performs operations 2–4 over the given session, using tdiff as
// the historical throughput-variation distribution (may be nil).
func (l *Localizer) Localize(session ReplaySession, tdiff []float64) (Verdict, error) {
	if l.Rand == nil {
		return Verdict{}, errors.New("wehey: Localizer.Rand is required")
	}
	var v Verdict

	// Operation 2a: single replays on p0 (WeHe detection).
	origSingle, err := session.SingleReplay(true)
	if err != nil {
		return v, fmt.Errorf("wehey: single original replay: %w", err)
	}
	invSingle, err := session.SingleReplay(false)
	if err != nil {
		return v, fmt.Errorf("wehey: single bit-inverted replay: %w", err)
	}
	det, err := wehe.DetectDifferentiation(origSingle.Throughput, invSingle.Throughput, l.Detection)
	if err != nil {
		return v, fmt.Errorf("wehey: WeHe detection: %w", err)
	}
	v.WeHeDetected = det.Differentiation
	v.X = origSingle.Throughput.Samples
	if !v.WeHeDetected {
		return v, nil
	}

	// Operation 2b: simultaneous replays on p1, p2.
	origSim, err := session.SimultaneousReplay(true)
	if err != nil {
		return v, fmt.Errorf("wehey: simultaneous original replay: %w", err)
	}
	for i, r := range origSim {
		if r.Measurements != nil {
			v.LossRates[i] = r.Measurements.LossRate()
		}
	}
	invSim, err := session.SimultaneousReplay(false)
	if err != nil {
		return v, fmt.Errorf("wehey: simultaneous bit-inverted replay: %w", err)
	}

	// Operation 2c (§3.4 step 4): post-replay topology verification.
	if tv, ok := session.(TopologyVerifier); ok {
		suitable, err := tv.VerifyTopology()
		if err != nil {
			return v, fmt.Errorf("wehey: topology verification: %w", err)
		}
		if !suitable {
			return Verdict{WeHeDetected: v.WeHeDetected}, ErrTopologyChanged
		}
	}

	// Operation 3: differentiation confirmation on both paths.
	v.Confirmed = true
	for i := 0; i < 2; i++ {
		d, err := wehe.DetectDifferentiation(origSim[i].Throughput, invSim[i].Throughput, l.Detection)
		if err != nil || !d.Differentiation {
			v.Confirmed = false
		}
	}
	v.Y = measure.SumSamples(origSim[0].Throughput.Samples, origSim[1].Throughput.Samples)
	if !v.Confirmed {
		return v, nil
	}

	// Operation 4: common-bottleneck detection.
	in := core.DetectorInput{X: v.X, Y: v.Y, TDiff: tdiff}
	if origSim[0].Measurements != nil && origSim[1].Measurements != nil {
		in.M1 = origSim[0].Measurements
		in.M2 = origSim[1].Measurements
	}
	err = l.Detect(&v, in)
	return v, err
}

// Detect performs operation 4, common-bottleneck detection, and records
// its outcome in v's Detail, Evidence and LocalizedToISP. Localize calls
// it once both paths confirmed the differentiation; callers that hold the
// measurements already (a simulated trial, a recorded session) call it
// directly. l.Rand is drawn from only when in carries a T_diff. On error
// v is left unchanged.
func (l *Localizer) Detect(v *Verdict, in core.DetectorInput) error {
	out, err := core.DetectCommonBottleneck(l.Rand, in, l.Detector)
	if err != nil {
		return fmt.Errorf("wehey: common-bottleneck detection: %w", err)
	}
	v.Detail = out
	v.Evidence = out.Evidence
	v.LocalizedToISP = out.Evidence.Found()
	return nil
}

// CellularTDiff draws a synthetic past-tests history of cellular clients
// (throughput varies ~15% test to test) from rng and returns its T_diff
// distribution for netflix on carrier-1.
func CellularTDiff(rng *rand.Rand) []float64 {
	h := wehe.SynthHistory(rng, wehe.SynthHistorySpec{
		Clients: 15, TestsPerClient: 9, Spread: 0.15,
	})
	return h.TDiff("", "netflix", "carrier-1")
}
