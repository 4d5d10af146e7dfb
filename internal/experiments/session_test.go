package experiments

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/wehe"
)

// testLocalizer carries a synthetic cellular T_diff history, as the root
// package's tests do.
func testLocalizer(rng *rand.Rand) *wehey.Localizer {
	return &wehey.Localizer{
		Rand:    rng,
		History: wehe.SynthHistory(rng, wehe.SynthHistorySpec{Clients: 15, TestsPerClient: 9, Spread: 0.15}),
	}
}

// collectiveSpec is the §6 collective-throttling session: the common
// limiter at Table 2's severe input factor.
func collectiveSpec(app string, dur time.Duration) SimSpec {
	return SimSpec{App: app, InputFactor: 2.5, Duration: dur}
}

func TestLocalizeCollectiveThrottling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := testLocalizer(rng)
	tdiff := l.TDiff("", "netflix", "carrier-1")
	session := NewSpecSession(rng, collectiveSpec(TCPBulkApp, 30*time.Second))
	v, err := l.Localize(session, tdiff)
	if err != nil {
		t.Fatal(err)
	}
	if !v.WeHeDetected {
		t.Fatal("WeHe missed collective throttling")
	}
	if !v.LocalizedToISP {
		t.Fatalf("not localized: %s", v)
	}
	if v.Evidence != core.EvidenceShared {
		t.Errorf("evidence = %v, want shared (loss-trend correlation)", v.Evidence)
	}
}

func TestLocalizeWithoutTDiffFallsBackToLossTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &wehey.Localizer{Rand: rng}
	session := NewSpecSession(rng, collectiveSpec(TCPBulkApp, 30*time.Second))
	v, err := l.Localize(session, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detail.Throughput != nil {
		t.Error("throughput comparison ran without T_diff")
	}
	if !v.LocalizedToISP || v.Evidence != core.EvidenceShared {
		t.Errorf("loss-trend fallback failed: %s", v)
	}
}

func TestLocalizeCollectiveUDP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := testLocalizer(rng)
	session := NewSpecSession(rng, collectiveSpec("zoom", 30*time.Second))
	v, err := l.Localize(session, l.TDiff("", "netflix", "carrier-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.WeHeDetected {
		t.Fatal("WeHe missed UDP collective throttling")
	}
	if !v.LocalizedToISP || v.Evidence != core.EvidenceShared {
		t.Fatalf("UDP collective not localized: %s", v)
	}
}

func TestSpecSessionUnknownApp(t *testing.T) {
	s := NewSpecSession(rand.New(rand.NewSource(1)), SimSpec{App: "myspace", Duration: time.Second})
	if _, err := s.SingleReplay(true); err == nil {
		t.Error("SingleReplay accepted an unknown app")
	}
	if _, err := s.SimultaneousReplay(true); err == nil {
		t.Error("SimultaneousReplay accepted an unknown app")
	}
	if _, err := (&wehey.Localizer{Rand: rand.New(rand.NewSource(1))}).Localize(s, nil); err == nil {
		t.Error("Localize accepted an unknown app")
	}
}

// TestSpecSessionRunsRunSim: the original simultaneous phase is exactly
// the tables' RunSim at the seed the session draws.
func TestSpecSessionRunsRunSim(t *testing.T) {
	spec := SimSpec{App: TCPBulkApp, InputFactor: 2.5, Duration: 3 * time.Second}
	got, err := NewSpecSession(rand.New(rand.NewSource(8)), spec).SimultaneousReplay(true)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = rand.New(rand.NewSource(8)).Int63()
	want := RunSim(spec)
	if !reflect.DeepEqual(got[0].Throughput, want.Tput[0]) || !reflect.DeepEqual(got[1].Throughput, want.Tput[1]) {
		t.Error("throughput differs from RunSim's")
	}
	if !reflect.DeepEqual(*got[0].Measurements, want.M1) || !reflect.DeepEqual(*got[1].Measurements, want.M2) {
		t.Error("measurements differ from RunSim's")
	}
}
