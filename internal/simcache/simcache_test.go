package simcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nal-epfl/wehey/internal/framing"
	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// stringCodec is the trivial identity codec used by the disk tests.
var stringCodec = Codec[string]{
	Encode: func(s string) []byte { return []byte(s) },
	Decode: func(b []byte) (string, error) { return string(b), nil },
}

func TestKeyOfSeparatesStampAndSpec(t *testing.T) {
	a := KeyOf("v1", []byte("spec"))
	if a != KeyOf("v1", []byte("spec")) {
		t.Fatal("KeyOf is not deterministic")
	}
	for name, other := range map[string]Key{
		"stamp":          KeyOf("v2", []byte("spec")),
		"spec":           KeyOf("v1", []byte("spec!")),
		"boundary shift": KeyOf("v1s", []byte("pec")),
	} {
		if other == a {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
}

// TestSingleFlight is the -race verified dedup guarantee: N concurrent
// requests for one key run exactly one computation, and everyone gets its
// value.
func TestSingleFlight(t *testing.T) {
	c := New[int]()
	key := KeyOf("v1", []byte("the one spec"))
	const goroutines = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			release.Wait() // line everyone up on the same key
			results[g] = c.Get(key, func() int {
				computes.Add(1)
				return 42
			})
		}(g)
	}
	release.Done()
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", g, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}

func TestMemoryHitAcrossSequentialGets(t *testing.T) {
	c := New[string]()
	key := KeyOf("v1", []byte("k"))
	calls := 0
	compute := func() string { calls++; return "value" }
	if got := c.Get(key, compute); got != "value" {
		t.Fatalf("first Get = %q", got)
	}
	if got := c.Get(key, compute); got != "value" {
		t.Fatalf("second Get = %q", got)
	}
	if calls != 1 {
		t.Fatalf("compute called %d times", calls)
	}
}

func TestDiskRoundTripAcrossProcessLifetimes(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("v1", []byte("spec"))

	cold, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Get(key, func() string { return "payload" }); got != "payload" {
		t.Fatalf("cold Get = %q", got)
	}
	if st := cold.Stats(); st.Misses != 1 || st.BytesWritten == 0 {
		t.Fatalf("cold stats = %+v, want 1 miss and a disk write", st)
	}

	// A fresh cache over the same directory stands in for a new process.
	warm, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	got := warm.Get(key, func() string {
		t.Error("warm Get recomputed despite a valid disk entry")
		return "recomputed"
	})
	if got != "payload" {
		t.Fatalf("warm Get = %q", got)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.BytesRead == 0 {
		t.Fatalf("warm stats = %+v, want 1 disk hit", st)
	}
}

// corruptions maps a name to a mutation of a valid on-disk entry. Every
// one must read as a miss — recompute, never a panic or a wrong value.
var corruptions = map[string]func([]byte) []byte{
	"truncated header":  func(b []byte) []byte { return b[:(len(entryMagic)+framing.HeaderSize)/2] },
	"truncated payload": func(b []byte) []byte { return b[:len(b)-1] },
	"empty file":        func([]byte) []byte { return nil },
	"bad magic":         func(b []byte) []byte { b[0] ^= 0xff; return b },
	"flipped payload":   func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	"flipped checksum":  func(b []byte) []byte { b[len(entryMagic)+9] ^= 0xff; return b },
	"flipped length":    func(b []byte) []byte { b[len(entryMagic)] ^= 0x01; return b }, // payload and checksum intact
	"extra bytes":       func(b []byte) []byte { return append(b, 0xaa) },
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			dir := t.TempDir()
			key := KeyOf("v1", []byte("spec"))
			seed, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			seed.Get(key, func() string { return "truth" })

			path := seed.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			recomputed := false
			if got := c.Get(key, func() string { recomputed = true; return "truth" }); got != "truth" {
				t.Fatalf("Get over corrupt entry = %q", got)
			}
			if !recomputed {
				t.Fatal("corrupt entry served without recompute")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want corrupt=1 misses=1", st)
			}
			// The recompute must have replaced the bad entry with a good one.
			fresh, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Get(key, func() string {
				t.Error("repaired entry not served from disk")
				return "truth"
			})
		})
	}
}

func TestDecodeFailureIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("v1", []byte("spec"))
	strict := Codec[string]{
		Encode: stringCodec.Encode,
		Decode: func(b []byte) (string, error) { return "", fmt.Errorf("schema drift") },
	}
	seed, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	seed.Get(key, func() string { return "truth" })

	c, err := NewDisk(dir, strict)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(key, func() string { return "truth" }); got != "truth" {
		t.Fatalf("Get = %q", got)
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the undecodable entry counted corrupt", st)
	}
}

// TestVersionStampMismatchIsAMiss pins the invalidation rule: the stamp
// participates in the key, so entries written under one schema are
// invisible — a plain miss, not an error — under another.
func TestVersionStampMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := []byte("same spec bytes")

	v1, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	v1.Get(KeyOf("schema/v1", spec), func() string { return "old-schema result" })

	v2, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	got := v2.Get(KeyOf("schema/v2", spec), func() string {
		recomputed = true
		return "new-schema result"
	})
	if !recomputed || got != "new-schema result" {
		t.Fatalf("recomputed=%v got=%q: v2 must not see v1 entries", recomputed, got)
	}
	if st := v2.Stats(); st.DiskHits != 0 || st.Corrupt != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want a clean miss", st)
	}
}

// TestPanickedLeaderReleasesWaiters: a panicking compute must not wedge
// concurrent waiters on the same key, and a retry must succeed.
func TestPanickedLeaderReleasesWaiters(t *testing.T) {
	c := New[int]()
	key := KeyOf("v1", []byte("k"))

	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.Get(key, func() int {
			close(leaderStarted)
			<-release
			panic("simulated compute failure")
		})
	}()

	<-leaderStarted
	go func() {
		// This waiter blocks on the leader's flight, observes the failure,
		// and becomes the new leader.
		done <- c.Get(key, func() int { return 7 })
	}()
	close(release)
	if got := <-done; got != 7 {
		t.Fatalf("waiter after failed leader got %d", got)
	}
}

// TestEntryPathFansOut: an entry sits at filepath.Join(dir, hx[:2],
// hx[2:]+".sim") for its key's hex hx, whatever dir looks like, built in
// one allocation; a cache opened at an unclean spelling of a directory
// hits the entries stored under the clean one.
func TestEntryPathFansOut(t *testing.T) {
	k := KeyOf("v1", []byte("x"))
	hx := k.String()
	tmp := t.TempDir()
	for _, dir := range []string{tmp, "a/./b/", "cache", "../x//y", string(filepath.Separator), tmp + "/./"} {
		c, err := newDisk(framingtest.New(nil), dir, stringCodec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.entryPath(k), filepath.Join(dir, hx[:2], hx[2:]+".sim"); got != want {
			t.Errorf("dir %q: entry path %q, want %q", dir, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.entryPath(k) }); allocs != 1 {
			t.Errorf("dir %q: entryPath makes %v allocations, want 1", dir, allocs)
		}
	}

	clean, err := NewDisk(tmp, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	clean.Get(k, func() string { return "stored" })
	unclean, err := NewDisk(tmp+"/./", stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := unclean.Get(k, func() string { return "computed" }); got != "stored" || unclean.Stats().DiskHits != 1 {
		t.Errorf("Get under %q = %q, stats %+v: want the stored entry", tmp+"/./", got, unclean.Stats())
	}
}

// TestDeclinedEncodeWritesNothing: a value the codec keeps off the disk
// (Encode returning nil, as the simulation cache does for an erred
// verdict) is served in process but writes no file and counts no write
// error, so the next process computes it again.
func TestDeclinedEncodeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("v1", []byte("spec"))
	declining := Codec[string]{
		Encode: func(s string) []byte {
			if s == "erred" {
				return nil
			}
			return []byte(s)
		},
		Decode: stringCodec.Decode,
	}
	for pass := 0; pass < 2; pass++ {
		c, err := NewDisk(dir, declining)
		if err != nil {
			t.Fatal(err)
		}
		computed := 0
		for range 2 {
			if got := c.Get(key, func() string { computed++; return "erred" }); got != "erred" {
				t.Fatalf("pass %d: Get = %q", pass, got)
			}
		}
		if st := c.Stats(); computed != 1 || st.Misses != 1 || st.Hits != 1 || st.DiskHits != 0 || st.WriteErrors != 0 || st.BytesWritten != 0 {
			t.Fatalf("pass %d: computed %d, stats %+v: want one miss, one hit, nothing written", pass, computed, st)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*", "*")); len(files) != 0 {
			t.Fatalf("pass %d: a declined value left files %v", pass, files)
		}
	}
}

// TestPutPublishesUnlessPresent: Put publishes and persists a value
// without counting a request, so the next Get is a hit and a new process
// reads it from disk; over a key that already has a value, or a flight
// in progress, it changes nothing and does not wait.
func TestPutPublishesUnlessPresent(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	put, got := KeyOf("v1", []byte("put")), KeyOf("v1", []byte("got"))
	c.Put(put, "offered")
	if st := c.Stats(); st.Requests() != 0 || st.BytesWritten != int64(len("offered")) {
		t.Fatalf("Put stats = %+v, want no request and one write", st)
	}
	if v := c.Get(put, func() string { t.Fatal("computed a published key"); return "" }); v != "offered" {
		t.Fatalf("Get after Put = %q", v)
	}
	c.Get(got, func() string {
		c.Put(got, "offered") // the key's own flight is in progress: no-op, no wait
		return "computed"
	})
	c.Put(got, "offered")
	if v := c.Get(got, nil); v != "computed" {
		t.Fatalf("Put replaced a published value: %q", v)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want one miss and two hits", st)
	}
	fresh, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	if v := fresh.Get(put, nil); v != "offered" || fresh.Stats().DiskHits != 1 {
		t.Fatalf("a new process read %q, stats %+v: want the put value from disk", v, fresh.Stats())
	}
}
