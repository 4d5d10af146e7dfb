package experiments

import (
	"testing"
	"time"
)

// BenchmarkRunSim is one cold 10 s trial of the Figure-1 scenario: two
// paced TCP replays through the common token-bucket limiter, with the
// packet-mode background on every link. It is the simulator's whole cost
// per trial (engine, TCP, TBF, links and background), without a cache or
// detection in front of it.
func BenchmarkRunSim(b *testing.B) {
	spec := SimSpec{App: TCPBulkApp, Placement: LimiterCommon, Duration: 10 * time.Second, Seed: 1}
	var events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		events += RunSim(spec).Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLocalize is a session's detection cost over a 45 s trial.
// `decide` is the verdict computed on a memory hit (what every repeat paid
// before entries kept their verdict), `memoized` a repeat of that trial,
// which reuses the entry's verdict. `disk` is a rerun's trial: a fresh
// disk cache over a populated directory, whose entry holds the verdict;
// `disk-redecide` the same entry with its verdict under another stamp, so
// the rerun decides again — the ablation of persisting the verdict.
func BenchmarkLocalize(b *testing.B) {
	for _, app := range []string{TCPBulkApp, "zoom"} {
		spec := SimSpec{App: app, Seed: 1}
		cfg := Config{Cache: NewSimCache()}
		if _, err := cfg.Localize(spec); err != nil {
			b.Fatal(err)
		}
		b.Run(app+"/decide", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := &trial{res: cfg.Sim(spec)}
				if _, err := tr.verdict(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(app+"/memoized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Localize(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, d := range []struct {
			name    string
			stamp   string
			decided int64
		}{{"disk", verdictStamp, 0}, {"disk-redecide", foreignStamp, 1}} {
			dir := b.TempDir()
			cold, err := newDiskSimCache(dir, d.stamp)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := (Config{Cache: cold}).Localize(spec); err != nil {
				b.Fatal(err)
			}
			b.Run(app+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					warm, err := NewDiskSimCache(dir)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := (Config{Cache: warm}).Localize(spec); err != nil {
						b.Fatal(err)
					}
					if st := warm.Stats(); st.DiskHits != 1 || warm.Decided() != d.decided {
						b.Fatalf("stats %+v, decided %d: want one disk hit and %d decided", st, warm.Decided(), d.decided)
					}
				}
			})
		}
	}
}
