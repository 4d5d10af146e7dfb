package measure_test

import (
	"testing"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/measure"
)

// BenchmarkPathBinary encodes and decodes the two path records of a
// simulated 45 s trial, with the fixed-width layout the delta coder
// replaced as the twin row: the delta layout has to stay about as fast per
// path while carrying half the bytes (encoded-B/op), since everything
// downstream of it — the disk read, the SHA-256 — is paid per byte.
func BenchmarkPathBinary(b *testing.B) {
	type codec struct {
		name   string
		encode func([]byte, *measure.Path) []byte
		decode func([]byte) (measure.Path, []byte, error)
	}
	codecs := []codec{
		{"delta", measure.AppendPathBinary, measure.DecodePathBinary},
		{"fixed", measure.AppendPathFixed, measure.DecodePathFixed},
	}
	for _, app := range []string{experiments.TCPBulkApp, "zoom"} {
		res := experiments.RunSim(experiments.SimSpec{App: app, Seed: 1})
		for _, c := range codecs {
			enc := c.encode(c.encode(nil, &res.M1), &res.M2)
			b.Run("encode/"+app+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]byte, 0, len(enc))
				for i := 0; i < b.N; i++ {
					buf = c.encode(c.encode(buf[:0], &res.M1), &res.M2)
				}
				b.ReportMetric(float64(len(buf)), "encoded-B/op")
			})
			b.Run("decode/"+app+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				elements := 0
				for i := 0; i < b.N; i++ {
					m1, rest, err := c.decode(enc)
					if err != nil {
						b.Fatal(err)
					}
					m2, _, err := c.decode(rest)
					if err != nil {
						b.Fatal(err)
					}
					elements += len(m1.Tx) + len(m2.Tx)
				}
				if elements == 0 {
					b.Fatal("decoded no timestamps")
				}
				b.ReportMetric(float64(len(enc)), "encoded-B/op")
			})
		}
	}
}
