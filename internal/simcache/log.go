package simcache

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"github.com/nal-epfl/wehey/internal/framing"
)

// A log-backed cache keeps all of its disk entries in one append-only
// file instead of one file per entry: logMagic, then one frame
// (internal/framing) per record, whose payload is the key followed by the
// encoded value. It suits many small entries that a process mostly reads:
// the whole file is read once, on the cache's first probe, and every
// probe after that is a map lookup.
//
//   - A read keeps the longest valid prefix: the magic, then whole frames
//     whose checksum matches and whose payload holds a key. Bytes after it
//     are a torn or damaged tail; the read counts one corrupt entry.
//   - The last record of a key wins, so a value stored again after its
//     record failed to decode supersedes that record.
//   - An append is one write of one whole frame on an O_APPEND descriptor,
//     not fsynced. Appends are serialized across every log cache in the
//     process (appendMu). A cache's first append reads the file again and,
//     if it is missing or its tail is not valid, replaces it with its
//     valid prefix (or the magic alone) first, so a record never lands
//     after bytes a reader stops at.
//   - Two processes appending to one log, or one repairing it while the
//     other appends, can lose records — the replaced file drops what the
//     other wrote since — and a lost record is computed again. A record is
//     never read as another key's value: the key is inside the checksummed
//     payload.
const logMagic = "WHYSIML1"

// appendMu serializes log appends across caches, so two caches over one
// file in a process neither interleave frames nor drop each other's
// records when one creates or repairs the file.
var appendMu sync.Mutex

// errLogFailed refuses appends after one of this cache's writes failed:
// the file may end in a torn frame, and a record after it is unreachable.
var errLogFailed = errors.New("simcache: an earlier append to the log failed")

// entryLog is a log-backed cache's file and what was read from it.
type entryLog struct {
	path string
	read func() // reads the file, once

	// Set by read, then only read.
	index      map[Key][]byte // each key's last record's value
	unreadable bool           // the read failed: every probe is a read error

	// Guarded by appendMu.
	ready  bool // the file was found valid, or repaired, before our first append
	failed bool // an append failed
}

// NewLog returns a cache persisting its entries as records of the log
// file at path, using codec for the round-trip. It does no I/O: the file
// is read on the first probe and created, with its directory, on the
// first append.
func NewLog[V any](path string, codec Codec[V]) (*Cache[V], error) {
	return newLog(framing.OS{}, path, codec)
}

// newLog is NewLog with its file on fsys.
func newLog[V any](fsys framing.FS, path string, codec Codec[V]) (*Cache[V], error) {
	if path == "" {
		return nil, fmt.Errorf("simcache: empty log path")
	}
	if codec.Encode == nil || codec.Decode == nil {
		return nil, fmt.Errorf("simcache: disk cache needs a complete codec")
	}
	c := New[V]()
	c.fsys, c.codec = fsys, codec
	c.log = &entryLog{path: path}
	c.log.read = sync.OnceFunc(c.readLog)
	return c, nil
}

// readLog reads the log into the index. A missing file is an empty log;
// one that cannot be read leaves every probe a read error, counted once.
func (c *Cache[V]) readLog() {
	var buf bytes.Buffer
	err := c.fsys.ReadFile(c.log.path, &buf)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		c.rErrors.Add(1)
		c.log.unreadable = true
		return
	}
	raw := buf.Bytes()
	index := make(map[Key][]byte)
	if scanLog(raw, func(k Key, v []byte) { index[k] = v }) < len(raw) {
		c.corrupt.Add(1)
	}
	c.log.index = index
}

// scanLog calls visit with each record of raw's longest valid prefix, in
// order, and returns that prefix's length: 0 when raw does not start
// with logMagic.
func scanLog(raw []byte, visit func(Key, []byte)) int {
	body, ok := bytes.CutPrefix(raw, []byte(logMagic))
	if !ok {
		return 0
	}
	off := framing.Scan(body)
	good := 0
	for i := 0; i+1 < len(off); i++ {
		p, ok := framing.Payload(body[off[i]:off[i+1]])
		if !ok || len(p) < len(Key{}) {
			break
		}
		visit(Key(p[:len(Key{})]), p[len(Key{}):])
		good = off[i+1]
	}
	return len(logMagic) + good
}

// loadLog probes the log: a record that fails to decode counts as corrupt
// and reads as a miss, and the value computed instead is appended after it.
func (c *Cache[V]) loadLog(key Key) (V, diskProbe) {
	var zero V
	c.log.read()
	if c.log.unreadable {
		return zero, diskUnreadable
	}
	value, ok := c.log.index[key]
	if !ok {
		return zero, diskMiss
	}
	v, err := c.codec.Decode(value)
	if err != nil {
		c.corrupt.Add(1)
		return zero, diskMiss
	}
	c.bytesRead.Add(int64(len(value)))
	return v, diskHit
}

// appendLog appends key's record.
func (c *Cache[V]) appendLog(key Key, value []byte) error {
	rec := append(append(make([]byte, 0, len(key)+len(value)), key[:]...), value...)
	frame := framing.Append(nil, rec)
	l := c.log
	appendMu.Lock()
	defer appendMu.Unlock()
	if l.failed {
		return errLogFailed
	}
	if !l.ready {
		if err := c.prepareLog(); err != nil {
			return err
		}
		l.ready = true
	}
	f, err := c.fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(frame)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.failed = true
	}
	return err
}

// prepareLog makes the file a valid log to append to: it reads it, and
// replaces it with its valid prefix — the magic alone when it is missing
// or does not start with it — unless the whole file is valid. appendMu
// is held.
func (c *Cache[V]) prepareLog() error {
	var buf bytes.Buffer
	if err := c.fsys.ReadFile(c.log.path, &buf); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	raw := buf.Bytes()
	good := scanLog(raw, func(Key, []byte) {})
	if good > 0 && good == len(raw) {
		return nil
	}
	valid := raw[:good]
	if good == 0 {
		valid = []byte(logMagic)
	}
	return framing.Replace(c.fsys, c.log.path, valid, false)
}
