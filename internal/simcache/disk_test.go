package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

// pathCodec stores a measure.Path the way the simulation cache stores a
// SimResult's two: slices decoded out of the read buffer, trailing bytes
// refused.
var pathCodec = Codec[measure.Path]{
	Encode: func(p measure.Path) []byte { return measure.AppendPathBinary(nil, &p) },
	Decode: func(b []byte) (measure.Path, error) {
		p, rest, err := measure.DecodePathBinary(b)
		if err == nil && len(rest) != 0 {
			err = errors.New("trailing bytes after path")
		}
		return p, err
	},
}

// tracePath is a packet trace of n transmissions about gap apart, with an
// out-of-order pair and a gap beyond 4.3 s so the encoding carries escapes.
func tracePath(n int, gap time.Duration) measure.Path {
	p := measure.Path{RTT: 35 * time.Millisecond, Duration: 45 * time.Second}
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += gap + time.Duration(i%97)*time.Microsecond
		switch i {
		case n / 3:
			at -= 2 * gap
		case n / 2:
			at += 5 * time.Second
		}
		p.Tx = append(p.Tx, at)
		if i%50 == 0 {
			p.Loss = append(p.Loss, at)
		}
	}
	return p
}

// frame is the test's own statement of the entry layout, independent of
// internal/framing.
func frame(payload []byte) []byte {
	b := append([]byte(nil), "WHYSIMC1"...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(append(b, sum[:]...), payload...)
}

// unframe is frame's inverse: the payload of a well-formed entry.
func unframe(raw []byte) ([]byte, bool) {
	const header = 8 + 8 + sha256.Size
	if len(raw) < header || string(raw[:8]) != "WHYSIMC1" {
		return nil, false
	}
	payload := raw[header:]
	if binary.LittleEndian.Uint64(raw[8:]) != uint64(len(payload)) {
		return nil, false
	}
	if sum := sha256.Sum256(payload); string(sum[:]) != string(raw[16:header]) {
		return nil, false
	}
	return payload, true
}

// TestReadErrorLeavesEntryInPlace: an entry that cannot be opened — here a
// symlink loop, ELOOP for root too; in the field EMFILE under a wide worker
// pool, EACCES, EIO — is a miss, not a corrupt entry: the value is computed,
// the file is neither deleted nor overwritten, and the event is counted.
func TestReadErrorLeavesEntryInPlace(t *testing.T) {
	c, err := NewDisk(t.TempDir(), stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("v1", []byte("spec"))
	path := c.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(path, path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if got := c.Get(key, func() string { return "computed" }); got != "computed" {
		t.Fatalf("Get = %q", got)
	}
	if info, err := os.Lstat(path); err != nil || info.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the unreadable entry was replaced or removed: %v, %v", info, err)
	}
	st := c.Stats()
	if st.Corrupt != 0 || st.ReadErrors != 1 || st.Misses != 1 || st.WriteErrors != 0 || st.BytesWritten != 0 {
		t.Fatalf("stats = %+v, want read-errors=1 misses=1 and nothing else", st)
	}
}

// TestStoreReplacesEntryByRename: an entry is written beside its path and
// renamed over it, never written through it. A dangling symlink at the
// entry path tells the two apart: a rename replaces the link, a write
// through it would create the link's target.
func TestStoreReplacesEntryByRename(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("v1", []byte("spec"))
	path := c.entryPath(key)
	victim := filepath.Join(dir, "victim")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(victim, path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	c.Get(key, func() string { return "value" })
	if _, err := os.Lstat(victim); !os.IsNotExist(err) {
		t.Errorf("the entry was written through its path (victim: %v)", err)
	}
	if info, err := os.Lstat(path); err != nil || !info.Mode().IsRegular() {
		t.Errorf("entry path is not a regular file after the store: %v, %v", info, err)
	}
	left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".tmp-*"))
	if st := c.Stats(); st.Misses != 1 || st.ReadErrors != 0 || st.WriteErrors != 0 || len(left) != 0 {
		t.Errorf("stats = %+v, temp files left %v", st, left)
	}
}

// TestDiskHitDoesNotAliasReadBuffer: decoded values must own their memory.
// Every disk hit reads into a pooled buffer the next hit overwrites, so a
// value that pointed into it would change under its holder.
func TestDiskHitDoesNotAliasReadBuffer(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewDisk(dir, pathCodec)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 4)
	truth := make([]measure.Path, len(keys))
	for i := range keys {
		keys[i] = KeyOf("v1", []byte{byte(i)})
		truth[i] = tracePath(900+100*i, time.Duration(i+1)*time.Millisecond)
		cold.Get(keys[i], func() measure.Path { return truth[i] })
	}

	// Two keys back to back through one cache, on one goroutine: the second
	// read reuses the first one's buffer.
	warm, err := NewDisk(dir, pathCodec)
	if err != nil {
		t.Fatal(err)
	}
	first := warm.Get(keys[0], nil)
	second := warm.Get(keys[1], nil)
	if !reflect.DeepEqual(first, truth[0]) || !reflect.DeepEqual(second, truth[1]) {
		t.Fatal("back-to-back disk hits differ from their cold values")
	}

	// Then concurrently, each hit through a fresh cache so that it is a disk
	// read: every result is checked after later hits have reused the buffer.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []measure.Path
			for i := 0; i < 200; i++ {
				c, err := NewDisk(dir, pathCodec)
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, c.Get(keys[(g+i)%len(keys)], nil))
				if st := c.Stats(); st.DiskHits != 1 {
					t.Errorf("goroutine %d hit %d: stats %+v, want a disk hit", g, i, st)
					return
				}
			}
			for i, p := range held {
				if !reflect.DeepEqual(p, truth[(g+i)%len(keys)]) {
					t.Errorf("goroutine %d: hit %d changed after later hits reused the read buffer", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDiskEntry puts arbitrary bytes at an entry path. Get must return the
// stored value exactly when the bytes are a well-formed entry holding a
// decodable path, and otherwise delete them and return the computed value —
// never panic, never a third value.
func FuzzDiskEntry(f *testing.F) {
	good := tracePath(40, time.Millisecond)
	payload := pathCodec.Encode(good)
	entry := frame(payload)
	f.Add(entry)
	f.Add([]byte{})
	f.Add(entry[:len(entry)-1])
	f.Add(append(append([]byte(nil), entry...), 0))
	flipped := append([]byte(nil), entry...)
	flipped[8+8+5] ^= 0x40 // a checksum byte
	f.Add(flipped)
	// Correctly framed, so only the decoder can refuse them: the payload cut
	// inside an escape (the out-of-order pair is element 13 of Tx), at every
	// byte of it, and a length claim of 2⁶³.
	escape := 16 + 9 + 13*4
	if binary.LittleEndian.Uint32(payload[escape:]) != 0xFFFFFFFF {
		f.Fatal("the seed path's escape is not where the seeds cut")
	}
	for cut := escape; cut <= escape+12; cut++ {
		f.Add(frame(payload[:cut]))
	}
	claim := measure.AppendUint64(append(append([]byte(nil), payload[:16]...), 1), 1<<63)
	f.Add(frame(claim))
	f.Add(frame(append(claim, payload...)))

	computed := tracePath(3, time.Second)
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := NewDisk(t.TempDir(), pathCodec)
		if err != nil {
			t.Fatal(err)
		}
		key := KeyOf("v1", []byte("spec"))
		path := c.entryPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want, stored := computed, false
		if payload, ok := unframe(raw); ok {
			if p, err := pathCodec.Decode(payload); err == nil {
				want, stored = p, true
			}
		}
		got := c.Get(key, func() measure.Path {
			if _, err := os.Lstat(path); !os.IsNotExist(err) {
				t.Errorf("the rejected entry is still there when the value is recomputed: %v", err)
			}
			return computed
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stored=%v: Get returned %+v, want %+v", stored, got, want)
		}
		st := c.Stats()
		if stored && (st.DiskHits != 1 || st.Misses != 0 || st.Corrupt != 0) ||
			!stored && (st.DiskHits != 0 || st.Misses != 1 || st.Corrupt != 1) || st.ReadErrors != 0 {
			t.Fatalf("stored=%v: stats %+v", stored, st)
		}
		// Whichever it was, the path now holds a good entry for that value.
		again, err := NewDisk(c.dir, pathCodec)
		if err != nil {
			t.Fatal(err)
		}
		if v := again.Get(key, nil); !reflect.DeepEqual(v, want) || again.Stats().DiskHits != 1 {
			t.Fatalf("second read: %+v, stats %+v", v, again.Stats())
		}
	})
}
