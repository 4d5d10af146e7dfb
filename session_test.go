package wehey

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/isp"
)

// TestSimSessionExtraReplaysReturnsP1P2: with ExtraReplays the
// simultaneous phase runs three flows through the bottleneck and returns
// the first two — exactly Profile.Replays' p1 and p2 for the same seed.
func TestSimSessionExtraReplaysReturnsP1P2(t *testing.T) {
	p := isp.FiveISPs()[0]
	const dur = 2 * time.Second
	s := NewSimSession(rand.New(rand.NewSource(8)), p, dur)
	s.ExtraReplays = 1
	got, err := s.SimultaneousReplay(true)
	if err != nil {
		t.Fatal(err)
	}

	// The session draws its trigger, then one seed per replay.
	rng := rand.New(rand.NewSource(8))
	trig := p.DrawTrigger(rng)
	seed := rng.Int63()
	want := p.Replays(seed, dur, trig, 3, true)
	for i := range got {
		if !reflect.DeepEqual(got[i].Throughput, want[i].Throughput) ||
			!reflect.DeepEqual(*got[i].Measurements, want[i].Measurements) {
			t.Errorf("p%d differs from the three-flow run's", i+1)
		}
	}
	if reflect.DeepEqual(want[0].Throughput, p.Replays(seed, dur, trig, 2, true)[0].Throughput) {
		t.Error("the third flow did not change p1's throughput")
	}
}
