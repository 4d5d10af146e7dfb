package wehey

import (
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/topology"
	"github.com/nal-epfl/wehey/internal/wehe"
)

func testLocalizer(rng *rand.Rand) *Localizer {
	return &Localizer{
		Rand:    rng,
		History: wehe.SynthHistory(rng, wehe.SynthHistorySpec{Clients: 15, TestsPerClient: 9, Spread: 0.15}),
	}
}

// simTrials runs n localizations against the profile over SimSession, all
// drawing from one rng, with extra replays in the simultaneous phase.
func simTrials(t *testing.T, seed int64, p isp.Profile, n, extra int) []Verdict {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := testLocalizer(rng)
	tdiff := l.TDiff("", "netflix", "carrier-1")
	out := make([]Verdict, n)
	for i := range out {
		s := NewSimSession(rng, p, 20*time.Second)
		s.ExtraReplays = extra
		v, err := l.Localize(s, tdiff)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestLocalizePerClientThrottling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := testLocalizer(rng)
	tdiff := l.TDiff("", "netflix", "carrier-1")
	session := NewSimSession(rng, isp.FiveISPs()[0], 20*time.Second)
	v, err := l.Localize(session, tdiff)
	if err != nil {
		t.Fatal(err)
	}
	if !v.WeHeDetected {
		t.Fatal("WeHe missed clear differentiation")
	}
	if !v.Confirmed {
		t.Fatal("differentiation not confirmed on both paths")
	}
	if !v.LocalizedToISP {
		t.Fatalf("not localized: %s", v)
	}
	if v.Evidence != core.EvidencePerClient {
		t.Errorf("evidence = %v, want per-client", v.Evidence)
	}
	if v.String() == "" {
		t.Error("empty verdict string")
	}
}

func TestLocalizeConditionalThrottlingUsuallyFails(t *testing.T) {
	vs := simTrials(t, 2, isp.FiveISPs()[4], 6, 0)
	hits := 0
	for _, v := range vs {
		if v.LocalizedToISP {
			hits++
		}
	}
	if hits > len(vs)/2 {
		t.Errorf("ISP5-style conditional throttling localized %d/%d; expected mostly failures", hits, len(vs))
	}
}

// TestLocalizeSanityCheckExtraReplay is Table 1's sanity check: a third
// concurrent replay steals bottleneck share, so the throughput comparison
// must not find a per-client bottleneck.
func TestLocalizeSanityCheckExtraReplay(t *testing.T) {
	vs := simTrials(t, 3, isp.FiveISPs()[0], 4, 1)
	falseDetections := 0
	for _, v := range vs {
		if v.Evidence == core.EvidencePerClient {
			falseDetections++
		}
	}
	if falseDetections > 1 {
		t.Errorf("sanity check: %d/%d per-client detections with a third replay stealing share",
			falseDetections, len(vs))
	}
}

// TestLocalizeConditionalTriggerTiming checks the Figure 4 shape in the
// verdict's own series: the trigger fires roughly twice as early under the
// simultaneous replay (two flows fill the byte budget faster).
func TestLocalizeConditionalTriggerTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := testLocalizer(rng)
	p := isp.FiveISPs()[4]
	p.TriggerJitter = 0 // deterministic threshold for the timing check
	const dur = 20 * time.Second
	v, err := l.Localize(NewSimSession(rng, p, dur), l.TDiff("", "netflix", "carrier-1"))
	if err != nil {
		t.Fatal(err)
	}

	interval := dur / measure.WeHeIntervals
	drop := func(th []float64) time.Duration {
		for i, x := range th {
			if float64(i)*interval.Seconds() > 2 && x < p.PlanRate*1.4 {
				return time.Duration(i) * interval
			}
		}
		return -1
	}
	singleDrop, simDrop := drop(v.X), drop(v.Y)
	if singleDrop < 0 || simDrop < 0 {
		t.Fatalf("no throttling observed: single %v sim %v", singleDrop, simDrop)
	}
	if simDrop >= singleDrop {
		t.Errorf("simultaneous throttling at %v should precede single at %v", simDrop, singleDrop)
	}
}

func TestLocalizeNeutralNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := testLocalizer(rng)
	// A profile whose "plan rate" never binds (plan ≥ app rate): WeHe must
	// find nothing and localization must stop after phase 1.
	p := isp.Profile{
		Name: "neutral", PlanRate: 50e6, RTT: 40 * time.Millisecond,
		UnthrottledRate: 8e6, LinkRate: 60e6,
	}
	session := NewSimSession(rng, p, 15*time.Second)
	v, err := l.Localize(session, l.TDiff("", "netflix", "carrier-1"))
	if err != nil {
		t.Fatal(err)
	}
	if v.WeHeDetected {
		t.Error("WeHe detected differentiation on a neutral network")
	}
	if v.LocalizedToISP {
		t.Error("localized on a neutral network")
	}
}

func TestLocalizerServers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := topology.Synthesize(rng, topology.SynthSpec{ISPs: 4, ClientsPerISP: 10})
	kept, _ := topology.AnnotateAll(net.Raws, net.Annotations)
	db := topology.Construct(kept)
	l := &Localizer{Rand: rng, TopologyDB: db}

	// Find a client with a suitable topology.
	found := false
	for _, c := range net.Clients {
		if pair, err := l.Servers(c.IP); err == nil {
			found = true
			if pair.Server1 == pair.Server2 || pair.Server1 == "" {
				t.Fatalf("degenerate pair %+v", pair)
			}
			break
		}
	}
	if !found {
		t.Fatal("no client had a suitable topology")
	}
	if _, err := l.Servers("203.0.113.99"); err == nil {
		t.Error("unknown client resolved")
	}
	noDB := &Localizer{Rand: rng}
	if _, err := noDB.Servers("100.64.0.1"); err == nil {
		t.Error("nil DB resolved")
	}
}

func TestLocalizerRequiresRand(t *testing.T) {
	l := &Localizer{}
	if _, err := l.Localize(nil, nil); err == nil {
		t.Error("nil Rand accepted")
	}
}

// verifyingSession wraps a ReplaySession with a canned topology verdict.
type verifyingSession struct {
	ReplaySession
	suitable bool
	err      error
}

func (s *verifyingSession) VerifyTopology() (bool, error) { return s.suitable, s.err }

func TestLocalizeTopologyVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := testLocalizer(rng)
	tdiff := l.TDiff("", "netflix", "carrier-1")
	base := NewSimSession(rng, isp.FiveISPs()[0], 15*time.Second)

	// A route change mid-test discards the measurements.
	_, err := l.Localize(&verifyingSession{ReplaySession: base, suitable: false}, tdiff)
	if err != ErrTopologyChanged {
		t.Errorf("err = %v, want ErrTopologyChanged", err)
	}

	// A still-suitable topology proceeds to a verdict.
	v, err := l.Localize(&verifyingSession{ReplaySession: base, suitable: true}, tdiff)
	if err != nil {
		t.Fatal(err)
	}
	if !v.LocalizedToISP {
		t.Errorf("verified session should localize: %s", v)
	}

	// Verification errors propagate.
	if _, err := l.Localize(&verifyingSession{ReplaySession: base, err: ErrNoTopology}, tdiff); err == nil {
		t.Error("verification error swallowed")
	}
}

// cannedSession is a ReplaySession over fixed series, with no simulator:
// the original trace runs at 2 Mbit/s on every path, the bit-inverted
// control at 8 Mbit/s — or at 2 Mbit/s too when neutral, a WeHe miss.
type cannedSession struct {
	neutral              bool
	m                    [2]*measure.Path // p1's and p2's original simultaneous measurements
	single, simultaneous int              // calls made
}

func cannedThroughput(mbps float64) measure.Throughput {
	s := make([]float64, measure.WeHeIntervals)
	for i := range s {
		s[i] = (mbps + 0.01*float64(i%7)) * 1e6
	}
	return measure.Throughput{Interval: 200 * time.Millisecond, Samples: s}
}

func (s *cannedSession) rate(original bool) float64 {
	if original || s.neutral {
		return 2
	}
	return 8
}

func (s *cannedSession) SingleReplay(original bool) (PathReplay, error) {
	s.single++
	return PathReplay{Throughput: cannedThroughput(s.rate(original))}, nil
}

func (s *cannedSession) SimultaneousReplay(original bool) ([2]PathReplay, error) {
	s.simultaneous++
	var out [2]PathReplay
	for i := range out {
		out[i] = PathReplay{Throughput: cannedThroughput(s.rate(original)), Measurements: s.m[i]}
		if !original {
			out[i].Measurements = cannedPath(2) // a loss rate LossRates must not report
		}
	}
	return out, nil
}

// cannedPath logs 2000 transmissions over 20 s and loses every lossEvery-th.
func cannedPath(lossEvery int) *measure.Path {
	p := &measure.Path{RTT: 50 * time.Millisecond, Duration: 20 * time.Second}
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		p.Tx = append(p.Tx, at)
		if i%lossEvery == 0 {
			p.Loss = append(p.Loss, at)
		}
	}
	return p
}

func TestLocalizeLossRatesFromOriginalSimultaneousReplay(t *testing.T) {
	for _, tc := range []struct {
		m    [2]*measure.Path
		want [2]float64
	}{
		{[2]*measure.Path{cannedPath(10), cannedPath(20)}, [2]float64{0.1, 0.05}},
		{[2]*measure.Path{cannedPath(10), nil}, [2]float64{0.1, 0}},
		{[2]*measure.Path{nil, nil}, [2]float64{0, 0}},
	} {
		v, err := (&Localizer{Rand: rand.New(rand.NewSource(1))}).Localize(&cannedSession{m: tc.m}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Confirmed {
			t.Fatalf("canned differentiation not confirmed: %s", v)
		}
		if v.LossRates != tc.want {
			t.Errorf("LossRates = %v, want %v", v.LossRates, tc.want)
		}
	}
}

func TestLocalizeStopsAfterWeHeMiss(t *testing.T) {
	s := &cannedSession{neutral: true, m: [2]*measure.Path{cannedPath(10), cannedPath(10)}}
	v, err := (&Localizer{Rand: rand.New(rand.NewSource(1))}).Localize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.WeHeDetected || v.Confirmed || v.LocalizedToISP {
		t.Errorf("identical replays produced %+v", v)
	}
	if s.single != 2 || s.simultaneous != 0 {
		t.Errorf("replays after a WeHe miss: %d single, %d simultaneous; want 2, 0", s.single, s.simultaneous)
	}
	if v.LossRates != [2]float64{} {
		t.Errorf("LossRates = %v without a simultaneous replay", v.LossRates)
	}
}

// BenchmarkThroughputComparison is the half of operation 4 a sim trial
// never runs (it has no T_diff): §4.1 over WeHe's 100 throughput
// intervals per replay against a CellularTDiff history, whose size is
// reported as tdiff.
func BenchmarkThroughputComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tdiff := CellularTDiff(rng)
	x, y := make([]float64, 100), make([]float64, 100)
	for i := range x {
		x[i] = 3e6 * (1 + 0.1*rng.NormFloat64())
		y[i] = 3e6 * (1 + 0.1*rng.NormFloat64())
	}
	b.ReportMetric(float64(len(tdiff)), "tdiff")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ThroughputComparison(rng, x, y, tdiff, core.ThroughputCmpConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
