package wehey

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/core"
)

// TestLocalizeOverTestbed drives the complete localization through real
// UDP sockets: WeHe detection, simultaneous replays through a shared
// middlebox TBF, and the throughput comparison — the per-client signature
// end to end on the real network stack.
func TestLocalizeOverTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("tens of seconds of real-time replay")
	}
	rng := rand.New(rand.NewSource(21))
	l := testLocalizer(rng)
	tdiff := l.TDiff("", "netflix", "carrier-1")

	session, err := NewTestbedSession(context.Background(), TestbedConfig{
		Rate:     3e6,
		Duration: 4 * time.Second,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.Localize(session, tdiff)
	if err != nil {
		t.Fatal(err)
	}
	if !v.WeHeDetected {
		t.Fatal("WeHe missed real-socket differentiation")
	}
	if !v.Confirmed {
		t.Fatal("differentiation not confirmed on both real-socket paths")
	}
	if !v.LocalizedToISP {
		t.Fatalf("not localized over the testbed: %s", v)
	}
	if v.Evidence != core.EvidencePerClient {
		t.Errorf("evidence = %v, want per-client", v.Evidence)
	}
}

func TestNewTestbedSessionValidation(t *testing.T) {
	if _, err := NewTestbedSession(context.Background(), TestbedConfig{App: "myspace"}); err == nil {
		t.Error("unknown app accepted")
	}
	s, err := NewTestbedSession(context.Background(), TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.App != "netflix" || s.cfg.Rate != 3e6 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}
