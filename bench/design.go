package main

import (
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
)

// The paper workloads run rounds of one fixed 24-cell design over
// experiments.DefaultGrid(): every (app, limiter placement) pair twice,
// with the other Table-2 parameters dealt from shuffled decks so that every
// input/queue/background-share/RTT/congestion value of the grid appears in
// each round. The design itself is built from a constant, so every round
// of every run costs the same simulated work; the workload seed supplies
// what a new measurement would change — each trial's simulation seed and
// the order trials are taken in. That keeps trials/s comparable across
// seeds and across runs that fit a different number of rounds into
// --seconds, which a freshly drawn parameter mix per seed would not.

// designSeed fixes the parameter pairing of the design.
const designSeed = 0x77e4e7

// roundSize is the number of trials in one round of the design.
const roundSize = 24

// designCells returns the round's parameter cells (Seed unset).
func designCells() []experiments.SimSpec {
	g := experiments.DefaultGrid()
	rng := rand.New(rand.NewSource(designSeed))
	input := newDeck(rng, g.InputFactors)
	queue := newDeck(rng, g.QueueFactors)
	share := newDeck(rng, g.BgShares)
	// Half the trials leave the non-common links uncongested (the grid's
	// default); the rest take each Table-4 congestion factor in turn.
	cong := newDeck(rng, append([]float64{0, 0, 0}, g.CongestionFactors...))
	rtt1 := newDeck(rng, g.RTT1s)
	rtt2 := newDeck(rng, g.RTT2s)

	var cells []experiments.SimSpec
	for rep := 0; rep < 2; rep++ {
		for _, app := range g.AllApps() {
			for _, pl := range []experiments.LimiterPlacement{experiments.LimiterCommon, experiments.LimiterNonCommon} {
				cells = append(cells, experiments.SimSpec{
					App:              app,
					Placement:        pl,
					InputFactor:      input.draw(),
					QueueFactor:      queue.draw(),
					BgShare:          share.draw(),
					CongestionFactor: cong.draw(),
					RTT1:             rtt1.draw(),
					RTT2:             rtt2.draw(),
					Duration:         45 * time.Second,
					BackgroundMode:   experiments.BgModePacket,
				})
			}
		}
	}
	return cells
}

// deck deals its values in shuffled order and reshuffles when empty, so
// every value appears once per len(values) draws.
type deck[T any] struct {
	rng    *rand.Rand
	values []T
	next   int
}

func newDeck[T any](rng *rand.Rand, values []T) *deck[T] {
	return &deck[T]{rng: rng, values: append([]T(nil), values...), next: len(values)}
}

func (d *deck[T]) draw() T {
	if d.next == len(d.values) {
		d.rng.Shuffle(len(d.values), func(i, j int) { d.values[i], d.values[j] = d.values[j], d.values[i] })
		d.next = 0
	}
	v := d.values[d.next]
	d.next++
	return v
}

// specSource turns the workload seed into rounds of specs: round r is the
// design with fresh simulation seeds, in a freshly shuffled order. Rounds
// are drawn in sequence from one generator, so round r is the same for a
// given seed however many rounds a run gets through.
type specSource struct {
	cells []experiments.SimSpec
	rng   *rand.Rand
}

func newSpecSource(seed int64) *specSource {
	return &specSource{cells: designCells(), rng: rand.New(rand.NewSource(seed))}
}

func (s *specSource) round() []experiments.SimSpec {
	out := append([]experiments.SimSpec(nil), s.cells...)
	for i := range out {
		out[i].Seed = s.rng.Int63()
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// take returns the first n specs of the next round (n <= roundSize); the
// smoke mode and the warm-up use it.
func (s *specSource) take(n int) []experiments.SimSpec {
	return s.round()[:n]
}

// poissonSchedule returns the due offsets of a Poisson arrival process at
// `rate` per second over `length`: exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}
