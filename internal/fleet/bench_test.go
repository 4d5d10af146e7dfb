package fleet

import (
	"testing"

	"github.com/nal-epfl/wehey/internal/experiments"
)

// benchObservations is campaign_bulk's verdict stream: 20 000 sessions
// over the 11 ISPs a starved one leaves, each credited with its planted
// ground truth as the verdict.
func benchObservations() (cells []Cell, localized []bool) {
	c := NewCampaign("bench", experiments.FleetCampaignSpec{StarvedISPs: []int{5}, Sessions: 20000, Seed: 1})
	for _, s := range c.Plan() {
		cells = append(cells, Cell{ISP: s.ISP, App: s.Spec.App})
		localized = append(localized, s.Throttled)
	}
	return cells, localized
}

// BenchmarkAggregatorObserve is one verdict credited to its cell: a map
// lookup and a count, over the campaign's cell set once every cell
// exists (the first pass over the stream creates them).
func BenchmarkAggregatorObserve(b *testing.B) {
	cells, localized := benchObservations()
	a := NewAggregator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(cells)
		a.Observe(cells[j], localized[j])
	}
	if b.N >= len(cells) && len(a.cells) != 11 {
		b.Fatalf("%d cells, want 11", len(a.cells))
	}
}

// BenchmarkAggregatorMerge folds eight shards, each holding an eighth of
// the campaign's verdicts, into a fresh aggregator: what a shard-parallel
// map build pays once at the end.
func BenchmarkAggregatorMerge(b *testing.B) {
	cells, localized := benchObservations()
	shards := make([]*Aggregator, 8)
	for i := range shards {
		shards[i] = NewAggregator()
	}
	for j := range cells {
		shards[j%len(shards)].Observe(cells[j], localized[j])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		merged := NewAggregator()
		for _, s := range shards {
			merged.Merge(s)
		}
		if len(merged.cells) != 11 {
			b.Fatalf("%d cells, want 11", len(merged.cells))
		}
	}
}
