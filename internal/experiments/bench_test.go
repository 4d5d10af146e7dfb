package experiments

import (
	"os"
	"path/filepath"
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
// which reuses the cached verdict. `disk` is a rerun: one fresh disk cache
// per round of diskRound distinct trials over a populated directory, as
// the ledger's paper_rerun opens one per round, so the round's first
// verdict reads the verdict log and the rest look it up; ns/op is per
// trial. `disk-redecide` removes the log before each round (what a
// verdictStamp bump leaves), so each trial reads its result entry, decides
// and appends its verdict again — the ablation of persisting verdicts
// apart from results.
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
		specs := make([]SimSpec, diskRound)
		for i := range specs {
			specs[i] = SimSpec{App: app, Seed: int64(i + 1)}
		}
		for _, err := range ForEach(len(specs), 0, func(i int) error {
			_, err := (Config{Cache: cold}).Localize(specs[i])
			return err
		}) {
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, d := range []struct {
			name     string
			redecide bool
		}{{"disk", false}, {"disk-redecide", true}} {
			b.Run(app+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				var warm *SimCache
				// check asserts that the round's n trials were disk hits,
				// decided only when the round removed the log.
				check := func(n int) {
					decided := int64(0)
					if d.redecide {
						decided = int64(n)
					}
					if st := warm.Stats(); st.DiskHits != int64(n) || st.Misses != 0 || warm.Decided() != decided {
						b.Fatalf("stats %+v, decided %d: want %d disk hits and %d decided", st, warm.Decided(), n, decided)
					}
				}
				for i := 0; i < b.N; i++ {
					if i%diskRound == 0 {
						if warm != nil {
							check(diskRound)
						}
						if d.redecide {
							b.StopTimer()
							if err := os.Remove(filepath.Join(dir, verdictLog)); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						if warm, err = NewDiskSimCache(dir); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := (Config{Cache: warm}).Localize(specs[i%diskRound]); err != nil {
						b.Fatal(err)
					}
				}
				check((b.N-1)%diskRound + 1)
			})
		}
	}
}

// diskRound is how many distinct trials BenchmarkLocalize's disk rounds
// read through one cache: the ledger's round size.
const diskRound = 24
