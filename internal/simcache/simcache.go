// Package simcache is a content-addressed result store for deterministic
// computations: given a stable binary encoding of a computation's full
// input (its "spec") and a schema stamp, it memoizes the result in
// process — with single-flight deduplication, so N concurrent requests
// for one key execute the computation exactly once — and optionally on
// disk, so a later process can skip the computation entirely.
//
// The cache is only sound for *pure* computations: the result must be a
// function of the encoded spec and nothing else. Callers must also treat
// returned values as immutable — the in-process layer hands the same
// value (including any backing slices and maps) to every requester of a
// key.
//
// A disk layer is either one file per entry (NewDisk), for large entries
// read one at a time, or one append-only log of records (NewLog), for
// small entries a process reads many of: the log is read whole on the
// first probe.
//
// Invalidation is by key derivation, not by scanning: the schema stamp
// participates in the key hash (KeyOf), so bumping the stamp orphans
// every existing entry — a version mismatch is indistinguishable from a
// miss. Corrupt or truncated disk entries are detected by checksum and
// likewise degrade to a miss (an entry file is deleted, a log record
// superseded), never to a panic or a wrong result. An entry that cannot be
// opened or read right now (EMFILE, EACCES, EIO) is a miss too, but it is
// left alone: only bytes that were read and found bad are deleted.
package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/nal-epfl/wehey/internal/framing"
)

// Key addresses one cached result: the SHA-256 of the schema stamp and
// the canonical binary encoding of the computation's full input.
type Key [sha256.Size]byte

// KeyOf derives the cache key for a spec encoding under a schema stamp.
// The stamp is length-prefixed so (stamp, spec) pairs cannot collide by
// shifting bytes between the two.
func KeyOf(stamp string, spec []byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(stamp)))
	h.Write(n[:])
	h.Write([]byte(stamp))
	h.Write(spec)
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Bytes returns the key's bytes, so one key can be the spec of another:
// KeyOf(stamp, k.Bytes()) addresses a value derived from k's.
func (k Key) Bytes() []byte { return k[:] }

// Codec round-trips values through the disk layer. Encode must be
// deterministic and Decode(Encode(v)) must reproduce v exactly — a cached
// result has to be indistinguishable from a recomputed one. Decode must
// not retain its argument or return anything that aliases it: the bytes
// live in a buffer that the next disk read reuses. Encode may return nil
// to keep a value off the disk: nothing is written, no write error is
// counted, and the next process computes the value again.
type Codec[V any] struct {
	Encode func(V) []byte
	Decode func([]byte) (V, error)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts in-process hits, including single-flight waiters that
	// blocked on a computation already running.
	Hits int64
	// DiskHits counts results loaded from the disk layer.
	DiskHits int64
	// Misses counts computations actually executed.
	Misses int64
	// Corrupt counts disk entries that were truncated, checksum-mismatched,
	// or undecodable, each treated as a miss — an entry file is deleted, a
	// log record superseded — and logs read with a torn or damaged tail.
	Corrupt int64
	// BytesRead and BytesWritten count disk-layer payload traffic.
	BytesRead    int64
	BytesWritten int64
	// WriteErrors counts failed disk writes (non-fatal: the result is
	// still returned, it just isn't persisted).
	WriteErrors int64
	// ReadErrors counts entry files, or logs, that exist but could not be
	// opened or read (non-fatal: the result is computed instead, and the
	// file is neither deleted nor overwritten).
	ReadErrors int64
}

// Requests returns the total number of Get calls accounted for.
func (s Stats) Requests() int64 { return s.Hits + s.DiskHits + s.Misses }

// HitRate returns the fraction of requests served without computing.
func (s Stats) HitRate() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(s.Requests())
}

// String renders the counters in the stable `k=v` form the CI gate and
// the cmds grep for.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk-hits=%d misses=%d corrupt=%d read=%dB written=%dB write-errors=%d read-errors=%d hit-rate=%.1f%%",
		s.Hits, s.DiskHits, s.Misses, s.Corrupt, s.BytesRead, s.BytesWritten, s.WriteErrors, s.ReadErrors, 100*s.HitRate())
}

// Cache is a content-addressed memoization table for one value type.
// The zero value is not usable; construct with New, NewDisk or NewLog.
type Cache[V any] struct {
	fsys  framing.FS // nil = memory only
	dir   string     // one file per entry under dir, or
	log   *entryLog  // every entry a record of one file
	codec Codec[V]

	mu      sync.Mutex
	flights map[Key]*flight[V]

	hits, diskHits, misses, corrupt           atomic.Int64
	bytesRead, bytesWritten, wErrors, rErrors atomic.Int64
}

// flight is one key's computation: the first requester (the leader)
// computes and publishes val, everyone else blocks on done. A flight
// doubles as the memoized entry once done is closed.
type flight[V any] struct {
	done   chan struct{}
	val    V
	failed bool // the leader panicked; waiters must re-request
}

// New returns a memory-only cache.
func New[V any]() *Cache[V] {
	return &Cache[V]{flights: make(map[Key]*flight[V])}
}

// NewDisk returns a cache persisting entries under dir (created if
// missing) using codec for the round-trip.
func NewDisk[V any](dir string, codec Codec[V]) (*Cache[V], error) {
	return newDisk(framing.OS{}, dir, codec)
}

// newDisk is NewDisk with its entries on fsys.
func newDisk[V any](fsys framing.FS, dir string, codec Codec[V]) (*Cache[V], error) {
	if dir == "" {
		return nil, fmt.Errorf("simcache: empty cache directory")
	}
	if codec.Encode == nil || codec.Decode == nil {
		return nil, fmt.Errorf("simcache: disk cache needs a complete codec")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := New[V]()
	c.dir, c.fsys, c.codec = filepath.Clean(dir), fsys, codec
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		DiskHits:     c.diskHits.Load(),
		Misses:       c.misses.Load(),
		Corrupt:      c.corrupt.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		WriteErrors:  c.wErrors.Load(),
		ReadErrors:   c.rErrors.Load(),
	}
}

// Get returns the value for key, computing it at most once per process
// (and at most once ever, with a disk layer): concurrent requests for the
// same key block until the single leader finishes. compute must be pure
// with respect to key.
func (c *Cache[V]) Get(key Key, compute func() V) V {
	for {
		c.mu.Lock()
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if !f.failed {
				c.hits.Add(1)
				return f.val
			}
			continue // leader panicked: race to become the new leader
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		return c.lead(key, f, compute)
	}
}

// Put publishes v under key, and persists it, as if a request for key
// had computed it — unless key already has a value or a computation in
// flight in this process, in which case it does nothing. Put counts no
// request: the caller accounted for the work that produced v elsewhere.
// It never waits on a flight, so a compute may call it for a key of
// another cache whose leader is itself waiting on this compute.
func (c *Cache[V]) Put(key Key, v V) {
	c.mu.Lock()
	if _, ok := c.flights[key]; ok {
		c.mu.Unlock()
		return
	}
	f := &flight[V]{done: make(chan struct{}), val: v}
	c.flights[key] = f
	c.mu.Unlock()
	c.storeDisk(key, v)
	close(f.done)
}

// lead runs the leader side of one flight: disk probe, compute, publish.
func (c *Cache[V]) lead(key Key, f *flight[V], compute func() V) V {
	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked. Unpublish the flight so a waiter (or a later
		// request) can retry, release the waiters, and let the panic
		// propagate to the leader's caller.
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.failed = true
		close(f.done)
	}()
	v, probe := c.loadDisk(key)
	if probe == diskHit {
		c.diskHits.Add(1)
		f.val = v
		completed = true
		close(f.done)
		return v
	}
	v = compute()
	c.misses.Add(1)
	f.val = v
	completed = true
	if probe != diskUnreadable {
		c.storeDisk(key, v)
	}
	close(f.done)
	return v
}

// Disk entry layout: entryMagic and one frame (internal/framing). The key
// never appears inside the file — it is the file name.
const entryMagic = "WHYSIMC1"

// entryPath fans entries out over 256 subdirectories so huge grids don't
// produce one enormous flat directory: it is filepath.Join(dir, hx[:2],
// hx[2:]+".sim") for the key's hex hx, built in one allocation — dir is
// cleaned once, in newDisk, so there is nothing left for Join to clean.
func (c *Cache[V]) entryPath(key Key) string {
	var hx [2 * len(key)]byte
	hex.Encode(hx[:], key[:])
	var p strings.Builder
	p.Grow(len(c.dir) + 1 + len(hx) + 1 + len(".sim"))
	p.WriteString(c.dir)
	if !strings.HasSuffix(c.dir, string(filepath.Separator)) { // the root
		p.WriteByte(filepath.Separator)
	}
	p.Write(hx[:2])
	p.WriteByte(filepath.Separator)
	p.Write(hx[2:])
	p.WriteString(".sim")
	return p.String()
}

// diskProbe is what loadDisk found at a key's entry path.
type diskProbe int

const (
	diskMiss       diskProbe = iota // no entry, or a bad one that was deleted
	diskHit                         // a verified, decoded entry
	diskUnreadable                  // an entry that could not be opened or read
)

// readBufs recycles the buffers entries are read into: a design-sized
// entry is ≈78 KB, and allocating and zeroing that per hit cost as much as
// reading it. Nothing loadDisk returns may point into the buffer.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// loadDisk probes the disk layer. An entry whose bytes fail the magic,
// length, checksum or decode check counts as corrupt, is deleted
// best-effort, and reads as a miss; one that cannot be opened or read
// counts as a read error and is left in place.
func (c *Cache[V]) loadDisk(key Key) (V, diskProbe) {
	var zero V
	if c.fsys == nil {
		return zero, diskMiss
	}
	if c.log != nil {
		return c.loadLog(key)
	}
	path := c.entryPath(key)
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	if err := c.fsys.ReadFile(path, buf); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return zero, diskMiss
		}
		c.rErrors.Add(1)
		return zero, diskUnreadable
	}
	payload, ok := framing.Entry(buf.Bytes(), entryMagic)
	if !ok {
		c.dropCorrupt(path)
		return zero, diskMiss
	}
	// Decode must copy what it keeps (Codec): buf goes back to the pool.
	v, err := c.codec.Decode(payload)
	if err != nil {
		c.dropCorrupt(path)
		return zero, diskMiss
	}
	c.bytesRead.Add(int64(len(payload)))
	return v, diskHit
}

func (c *Cache[V]) dropCorrupt(path string) {
	c.corrupt.Add(1)
	// Best-effort: leaving the entry behind only costs a recheck.
	_ = c.fsys.Remove(path)
}

// storeDisk persists a computed value. Failures are counted, not fatal:
// the caller already has the value.
func (c *Cache[V]) storeDisk(key Key, v V) {
	if c.fsys == nil {
		return
	}
	payload := c.codec.Encode(v)
	if payload == nil {
		return // the codec keeps this value off the disk
	}
	var err error
	if c.log != nil {
		err = c.appendLog(key, payload)
	} else {
		buf := make([]byte, 0, len(entryMagic)+framing.HeaderSize+len(payload))
		buf = framing.Append(append(buf, entryMagic...), payload)
		// Replacing the entry whole keeps concurrent processes (two cold
		// runs sharing a directory) from observing a torn one. It is not
		// fsynced: a power loss can tear an entry, and the checksum turns
		// that into a miss.
		err = framing.Replace(c.fsys, c.entryPath(key), buf, false)
	}
	if err != nil {
		c.wErrors.Add(1)
		return
	}
	c.bytesWritten.Add(int64(len(payload)))
}
