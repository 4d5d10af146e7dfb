package experiments

import (
	"os"
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
// before the cache kept verdicts), `memoized` a repeat of that trial,
// which reuses the cached verdict. `disk` is a rerun's trial: a fresh
// disk cache over a populated directory, which reads the trial's verdict
// entry alone; `disk-redecide` the same directory with that entry gone
// (what a verdictStamp bump leaves), so the rerun reads the result entry,
// decides and stores the verdict again — the ablation of persisting the
// verdict as an entry of its own.
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
				res := cfg.Sim(spec)
				if _, err := decide(&res); err != nil {
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
		dir := b.TempDir()
		cold, err := NewDiskSimCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (Config{Cache: cold}).Localize(spec); err != nil {
			b.Fatal(err)
		}
		_, vkey := cacheKeys(&spec)
		verdictEntry := entryFile(b, dir, vkey)
		for _, d := range []struct {
			name    string
			decided int64
		}{{"disk", 0}, {"disk-redecide", 1}} {
			b.Run(app+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if d.decided != 0 {
						b.StopTimer()
						if err := os.Remove(verdictEntry); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
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
