package simcache

import (
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

// BenchmarkDiskHit is one warm-rerun trial's cache cost: a fresh cache over
// a populated directory (so the Get is a disk read, never a memory hit) and
// one entry the size of a design trial's — ≈19 000 timestamps, ≈78 KB. The
// read buffer is pooled, so B/op is the decoded value plus the cache.
func BenchmarkDiskHit(b *testing.B) {
	dir := b.TempDir()
	key := KeyOf("v1", []byte("spec"))
	cold, err := NewDisk(dir, pathCodec)
	if err != nil {
		b.Fatal(err)
	}
	cold.Get(key, func() measure.Path { return tracePath(19000, 2*time.Millisecond) })
	b.SetBytes(cold.Stats().BytesWritten)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewDisk(dir, pathCodec)
		if err != nil {
			b.Fatal(err)
		}
		if p := c.Get(key, nil); len(p.Tx) != 19000 || c.Stats().DiskHits != 1 {
			b.Fatalf("not a disk hit: %d timestamps, %+v", len(p.Tx), c.Stats())
		}
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
