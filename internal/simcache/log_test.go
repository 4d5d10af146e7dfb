package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// logRecord is the test's own statement of one log record: a frame whose
// payload is the key and then the value.
func logRecord(key Key, value string) []byte {
	payload := append(key[:len(key):len(key)], value...)
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(append(b, sum[:]...), payload...)
}

// logImage is a log file holding records in order.
func logImage(records ...[]byte) []byte {
	return append([]byte("WHYSIML1"), bytes.Join(records, nil)...)
}

// checkedCodec refuses values starting with "bad", so a test can store a
// record that frames correctly but does not decode, and keeps "" off the
// disk.
var checkedCodec = Codec[string]{
	Encode: func(s string) []byte {
		if s == "" {
			return nil
		}
		return []byte(s)
	},
	Decode: func(b []byte) (string, error) {
		if bytes.HasPrefix(b, []byte("bad")) {
			return "", errors.New("undecodable")
		}
		return string(b), nil
	},
}

func keyN(i int) Key { return KeyOf("v1", []byte{byte(i)}) }

// get asks c for each key, computing "computed i" for key i, and returns
// the values.
func get(c *Cache[string], keys ...int) []string {
	var out []string
	for _, i := range keys {
		out = append(out, c.Get(keyN(i), func() string { return fmt.Sprint("computed ", i) }))
	}
	return out
}

// TestLogRoundTrip: values stored by one cache are records of one file,
// laid out as the package documents, and a fresh cache serves each of them
// as a disk hit.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "v.log")
	cold, err := NewLog(path, checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	get(cold, 0, 1, 2)
	if st := cold.Stats(); st.Misses != 3 || st.BytesWritten != 3*int64(len("computed 0")) || st.WriteErrors != 0 {
		t.Fatalf("cold stats %+v", st)
	}
	raw, err := os.ReadFile(path)
	if want := logImage(logRecord(keyN(0), "computed 0"), logRecord(keyN(1), "computed 1"), logRecord(keyN(2), "computed 2")); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("log is\n% x\nwant\n% x (err %v)", raw, want, err)
	}
	warm, err := NewLog(path, checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	warm.Get(keyN(1), nil)
	warm.Get(keyN(2), nil)
	if got := get(warm, 0, 1, 2, 3); fmt.Sprint(got) != "[computed 0 computed 1 computed 2 computed 3]" {
		t.Fatalf("warm values %q", got)
	}
	if st := warm.Stats(); st.DiskHits != 3 || st.Hits != 2 || st.Misses != 1 || st.Corrupt != 0 || st.BytesRead != 3*int64(len("computed 0")) {
		t.Fatalf("warm stats %+v", st)
	}
}

// TestLogReadOnFirstProbe: NewLog touches nothing; the first probe reads
// the file, and no later probe reads it again.
func TestLogReadOnFirstProbe(t *testing.T) {
	fsys := framingtest.New(map[string][]byte{"v.log": logImage(logRecord(keyN(0), "stored 0"), logRecord(keyN(1), "stored 1"))})
	var reads int
	fsys.Hook = func(op *framingtest.Op) error {
		if op.Kind == framingtest.Read {
			reads++
		}
		return nil
	}
	image := fsys.Len()
	c, err := newLog(fsys, "v.log", checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 0 || fsys.Len() != image {
		t.Fatalf("NewLog read %d times and logged %d operations, want none", reads, fsys.Len()-image)
	}
	if got := get(c, 0, 1); fmt.Sprint(got) != "[stored 0 stored 1]" || reads != 1 {
		t.Fatalf("values %q after %d reads", got, reads)
	}
}

// TestLogTornTail: a record cut short at any byte leaves the records
// before it served and one corrupt counted; the cache's first append
// rewrites the file to its valid prefix, so the record it appends is read
// by a fresh cache.
func TestLogTornTail(t *testing.T) {
	whole := logImage(logRecord(keyN(0), "stored 0"), logRecord(keyN(1), "stored 1"))
	first := len(logImage(logRecord(keyN(0), "stored 0")))
	for cut := first + 1; cut < len(whole); cut++ {
		path := filepath.Join(t.TempDir(), "v.log")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewLog(path, checkedCodec)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(c, 0, 1); fmt.Sprint(got) != "[stored 0 computed 1]" {
			t.Fatalf("cut %d: values %q", cut, got)
		}
		if st := c.Stats(); st.DiskHits != 1 || st.Misses != 1 || st.Corrupt != 1 || st.WriteErrors != 0 {
			t.Fatalf("cut %d: stats %+v", cut, st)
		}
		raw, err := os.ReadFile(path)
		if want := logImage(logRecord(keyN(0), "stored 0"), logRecord(keyN(1), "computed 1")); err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("cut %d: the appended record does not follow the valid prefix:\n% x", cut, raw)
		}
		fresh, err := NewLog(path, checkedCodec)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(fresh, 0, 1); fmt.Sprint(got) != "[stored 0 computed 1]" || fresh.Stats().DiskHits != 2 || fresh.Stats().Corrupt != 0 {
			t.Fatalf("cut %d: fresh cache values %q, stats %+v", cut, got, fresh.Stats())
		}
	}
}

// TestLogDamage: a flipped payload byte ends the valid prefix at its
// record, and a file without the magic holds no valid record; either is
// one corrupt, and the first append replaces the file with its valid
// prefix (or the magic alone) and the new record.
func TestLogDamage(t *testing.T) {
	r0, r1, r2 := logRecord(keyN(0), "stored 0"), logRecord(keyN(1), "stored 1"), logRecord(keyN(2), "stored 2")
	flipped := logImage(r0, r1, r2)
	flipped[len(logImage(r0))+len(r1)-1] ^= 0x01
	for _, tc := range []struct {
		name  string
		image []byte
		want  string // the values of keys 0, 1 and 2
		after []byte // the file after key 1's value was appended
	}{
		{"flipped payload byte", flipped, "[stored 0 computed 1 computed 2]", logImage(r0, logRecord(keyN(1), "computed 1"), logRecord(keyN(2), "computed 2"))},
		{"foreign magic", append([]byte("WHYSIML0"), logImage(r0)[8:]...), "[computed 0 computed 1 computed 2]", logImage(logRecord(keyN(0), "computed 0"), logRecord(keyN(1), "computed 1"), logRecord(keyN(2), "computed 2"))},
		{"short of a magic", []byte("WHYS"), "[computed 0 computed 1 computed 2]", logImage(logRecord(keyN(0), "computed 0"), logRecord(keyN(1), "computed 1"), logRecord(keyN(2), "computed 2"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v.log")
			if err := os.WriteFile(path, tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewLog(path, checkedCodec)
			if err != nil {
				t.Fatal(err)
			}
			if got := get(c, 0, 1, 2); fmt.Sprint(got) != tc.want {
				t.Fatalf("values %q, want %s", got, tc.want)
			}
			if st := c.Stats(); st.Corrupt != 1 || st.WriteErrors != 0 {
				t.Fatalf("stats %+v, want one corrupt", st)
			}
			if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, tc.after) {
				t.Fatalf("file after the appends:\n% x\nwant\n% x (err %v)", raw, tc.after, err)
			}
		})
	}
}

// TestLogLastRecordWins: a record that frames correctly but does not
// decode is corrupt and a miss; the value computed instead is appended,
// and a fresh cache serves it, not the record before it.
func TestLogLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	if err := os.WriteFile(path, logImage(logRecord(keyN(0), "bad record"), logRecord(keyN(1), "stored 1")), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewLog(path, checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(c, 0, 1); fmt.Sprint(got) != "[computed 0 stored 1]" {
		t.Fatalf("values %q", got)
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.DiskHits != 1 {
		t.Fatalf("stats %+v", st)
	}
	fresh, err := NewLog(path, checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(fresh, 0, 1); fmt.Sprint(got) != "[computed 0 stored 1]" {
		t.Fatalf("fresh values %q", got)
	}
	if st := fresh.Stats(); st.Corrupt != 0 || st.DiskHits != 2 {
		t.Fatalf("fresh stats %+v", st)
	}
}

// TestLogConcurrentAppenders: two caches over one log, both of which read
// it while it was missing, lose none of each other's records: the second
// cache's first append keeps the first cache's record, and then each
// stores its own keys from several goroutines at once. A third cache
// serves every one. Run it under -race.
func TestLogConcurrentAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	const perCache = 40
	var caches [2]*Cache[string]
	for c := range caches {
		var err error
		if caches[c], err = NewLog(path, checkedCodec); err != nil {
			t.Fatal(err)
		}
		caches[c].Get(keyN(200), func() string { return "" }) // a probe that stores nothing
	}
	get(caches[0], 0)
	get(caches[1], perCache)
	var wg sync.WaitGroup
	for c, cache := range caches {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c, g int, cache *Cache[string]) {
				defer wg.Done()
				for i := 1 + g; i < perCache; i += 4 {
					get(cache, c*perCache+i)
				}
			}(c, g, cache)
		}
	}
	wg.Wait()
	third, err := NewLog(path, checkedCodec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*perCache; i++ {
		if got := third.Get(keyN(i), func() string { return "lost" }); got != fmt.Sprint("computed ", i) {
			t.Fatalf("key %d: %q", i, got)
		}
	}
	if st := third.Stats(); st.DiskHits != 2*perCache || st.Corrupt != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLogFaults fails the log's reads and writes: a failed read leaves
// every probe a read error, counted once, and the file alone; a failed
// append counts a write error and persists nothing, and after a write
// fails the cache appends no more, while a fresh cache repairs what it
// left.
func TestLogFaults(t *testing.T) {
	stored := logImage(logRecord(keyN(0), "stored 0"))

	t.Run("read", func(t *testing.T) {
		fsys := framingtest.New(map[string][]byte{"v.log": stored})
		fsys.Hook = failing(framingtest.Read, syscall.EIO)
		c, err := newLog(fsys, "v.log", checkedCodec)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(c, 0, 1); fmt.Sprint(got) != "[computed 0 computed 1]" {
			t.Fatalf("values %q", got)
		}
		if st := c.Stats(); st.ReadErrors != 1 || st.Misses != 2 || st.Corrupt != 0 || st.WriteErrors != 0 || st.BytesWritten != 0 {
			t.Fatalf("stats %+v, want read-errors=1 misses=2 and nothing else", st)
		}
		if files := fsys.Files(); len(files) != 1 || !bytes.Equal(files["v.log"], stored) {
			t.Fatal("the unreadable log was changed")
		}
	})

	for name, fault := range map[string]func(*framingtest.Op) error{
		"create": failing(framingtest.Create, syscall.EMFILE),
		"rename": failing(framingtest.Rename, syscall.EXDEV),
	} {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(nil)
			fsys.Hook = fault
			c, err := newLog(fsys, "v.log", checkedCodec)
			if err != nil {
				t.Fatal(err)
			}
			get(c, 0)
			if st := c.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.BytesWritten != 0 {
				t.Fatalf("stats %+v, want one write error", st)
			}
			if files := fsys.Files(); len(files) != 0 {
				t.Fatalf("the failed create left %d files", len(files))
			}
			fsys.Hook = nil // the fault clears: the next append creates the log
			get(c, 1)
			if files := fsys.Files(); !bytes.Equal(files["v.log"], logImage(logRecord(keyN(1), "computed 1"))) {
				t.Fatalf("after the fault cleared the log is % x", files["v.log"])
			}
		})
	}

	for name, fault := range map[string]func(*framingtest.Op) error{
		"short write": func(op *framingtest.Op) error {
			if op.Kind == framingtest.Write && op.Path == "v.log" {
				op.Data = op.Data[:len(op.Data)/2]
			}
			return nil
		},
		"no space": func(op *framingtest.Op) error {
			if op.Kind == framingtest.Write && op.Path == "v.log" {
				return syscall.ENOSPC
			}
			return nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(map[string][]byte{"v.log": stored})
			fsys.Hook = fault
			c, err := newLog(fsys, "v.log", checkedCodec)
			if err != nil {
				t.Fatal(err)
			}
			get(c, 1)
			fsys.Hook = nil
			get(c, 2) // refused: the file may end in a torn frame
			if st := c.Stats(); st.WriteErrors != 2 || st.Misses != 2 || st.BytesWritten != 0 {
				t.Fatalf("stats %+v, want two write errors", st)
			}
			fresh, err := newLog(fsys, "v.log", checkedCodec)
			if err != nil {
				t.Fatal(err)
			}
			if got := get(fresh, 0, 1); fmt.Sprint(got) != "[stored 0 computed 1]" {
				t.Fatalf("fresh values %q", got)
			}
			if files := fsys.Files(); !bytes.Equal(files["v.log"], logImage(logRecord(keyN(0), "stored 0"), logRecord(keyN(1), "computed 1"))) {
				t.Fatalf("the fresh cache's append did not follow the valid prefix: % x", files["v.log"])
			}
		})
	}
}
