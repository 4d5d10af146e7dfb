package simcache

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

// BenchmarkDiskHit is a warm rerun's cache cost per trial: each hit is a
// disk hit, through fresh caches over a populated store opened one per
// round of 24 keys, as the ledger's paper_rerun opens one per round.
// size=verdict is an entry the size of a trial's verdict, ≈0.4 KB — all a
// rerun reads — kept as one file per entry (layout=file) or as records of
// one log (layout=log): the ablation of the verdict log, which reads the
// round's verdicts with one file instead of 24. size=result is an entry
// the size of a design trial's result — ≈19 000 timestamps, ≈78 KB — in
// its own file. parallel runs GOMAXPROCS readers, as the ledger's two
// clients do. B/op is the decoded value plus the cache.
func BenchmarkDiskHit(b *testing.B) {
	keys := make([]Key, 24)
	for i := range keys {
		keys[i] = KeyOf("v1", []byte{byte(i)})
	}
	type opener func(dir string) (*Cache[measure.Path], error)
	file := func(dir string) (*Cache[measure.Path], error) { return NewDisk(dir, pathCodec) }
	log := func(dir string) (*Cache[measure.Path], error) { return NewLog(filepath.Join(dir, "v.log"), pathCodec) }
	for _, tc := range []struct {
		name string
		n    int
		open opener
	}{
		{"size=verdict/layout=file", 90, file},
		{"size=verdict/layout=log", 90, log},
		{"size=result/layout=file", 19000, file},
	} {
		dir := b.TempDir()
		cold, err := tc.open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			cold.Get(k, func() measure.Path { return tracePath(tc.n, 2*time.Millisecond) })
		}
		written := cold.Stats().BytesWritten / int64(len(keys))
		// hits returns a function making one disk hit per call, on a fresh
		// cache every len(keys) calls.
		hits := func() func() error {
			var c *Cache[measure.Path]
			j := 0
			return func() error {
				if j%len(keys) == 0 {
					var err error
					if c, err = tc.open(dir); err != nil {
						return err
					}
				}
				k := keys[j%len(keys)]
				j++
				if p := c.Get(k, nil); len(p.Tx) != tc.n || c.Stats().DiskHits != int64((j-1)%len(keys)+1) {
					return fmt.Errorf("not a disk hit: %d timestamps, %+v", len(p.Tx), c.Stats())
				}
				return nil
			}
		}
		b.Run(tc.name+"/serial", func(b *testing.B) {
			b.SetBytes(written)
			b.ReportAllocs()
			hit := hits()
			for i := 0; i < b.N; i++ {
				if err := hit(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/parallel", func(b *testing.B) {
			b.SetBytes(written)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				hit := hits()
				for pb.Next() {
					if err := hit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkMemoryHit is a served session's cache cost: a Get for a key
// this process already computed, answered from the flight table.
func BenchmarkMemoryHit(b *testing.B) {
	c := New[measure.Path]()
	key := KeyOf("v1", []byte("spec"))
	c.Get(key, func() measure.Path { return tracePath(19000, 2*time.Millisecond) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := c.Get(key, nil); len(p.Tx) != 19000 {
			b.Fatalf("not a hit: %d timestamps", len(p.Tx))
		}
	}
	if st := c.Stats(); st.Hits != int64(b.N) {
		b.Fatalf("%d hits in %d gets", st.Hits, b.N)
	}
}

// BenchmarkKeyOf derives the key of a SimSpec-sized (≈120-byte) encoding.
func BenchmarkKeyOf(b *testing.B) {
	spec := make([]byte, 120)
	b.ReportAllocs()
	var k Key
	for i := 0; i < b.N; i++ {
		spec[0] = byte(i)
		k = KeyOf("wehey/simcache/v3", spec)
	}
	if k == (Key{}) {
		b.Fatal("zero key")
	}
}
