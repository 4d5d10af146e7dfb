package simcache

import (
	"fmt"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

// BenchmarkDiskHit is one warm-rerun trial's cache cost: a fresh cache over
// a populated directory (so the Get is a disk read, never a memory hit).
// size=result is an entry the size of a design trial's result — ≈19 000
// timestamps, ≈78 KB — and size=verdict one the size of its verdict entry,
// ≈0.4 KB, which is all a rerun reads. parallel runs GOMAXPROCS readers,
// as the ledger's two clients do. The read buffer is pooled, so B/op is
// the decoded value plus the cache.
func BenchmarkDiskHit(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"verdict", 90}, {"result", 19000}} {
		dir := b.TempDir()
		key := KeyOf("v1", []byte("spec"))
		cold, err := NewDisk(dir, pathCodec)
		if err != nil {
			b.Fatal(err)
		}
		cold.Get(key, func() measure.Path { return tracePath(size.n, 2*time.Millisecond) })
		written := cold.Stats().BytesWritten
		hit := func() error {
			c, err := NewDisk(dir, pathCodec)
			if err != nil {
				return err
			}
			if p := c.Get(key, nil); len(p.Tx) != size.n || c.Stats().DiskHits != 1 {
				return fmt.Errorf("not a disk hit: %d timestamps, %+v", len(p.Tx), c.Stats())
			}
			return nil
		}
		b.Run("size="+size.name+"/serial", func(b *testing.B) {
			b.SetBytes(written)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := hit(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("size="+size.name+"/parallel", func(b *testing.B) {
			b.SetBytes(written)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
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
