package experiments

import "testing"

// BenchmarkLocalize is a served session's detection cost over a 45 s trial
// already in memory: `decide` is the verdict computed on a memory hit
// (what every repeat paid before entries kept their verdict), `memoized`
// a repeat of that trial, which reuses the entry's verdict.
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
	}
}
