package isp_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/wehe"
)

// TestAlwaysOnISPLocalizes runs the paper's test procedure five times
// against ISP1, the always-on per-client policer, over a simulated session.
func TestAlwaysOnISPLocalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := &wehey.Localizer{
		Rand:    rng,
		History: wehe.SynthHistory(rng, wehe.SynthHistorySpec{Clients: 15, TestsPerClient: 9, Spread: 0.15}),
	}
	tdiff := l.TDiff("", "netflix", "carrier-1")
	p := isp.FiveISPs()[0]
	hits := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		v, err := l.Localize(wehey.NewSimSession(rng, p, 20*time.Second), tdiff)
		if err != nil {
			t.Fatal(err)
		}
		if !v.WeHeDetected {
			t.Errorf("trial %d: WeHe missed a 4 vs 9 Mbit/s differentiation", i)
		}
		if !v.Confirmed {
			t.Errorf("trial %d: simultaneous differentiation not confirmed", i)
		}
		if v.LocalizedToISP {
			hits++
			if v.Evidence != core.EvidencePerClient {
				t.Errorf("trial %d: evidence = %v, want per-client", i, v.Evidence)
			}
		}
	}
	if hits < trials-1 {
		t.Errorf("localized %d/%d tests on an always-on per-client policer", hits, trials)
	}
}
