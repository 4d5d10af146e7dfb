package measure

// Exact binary codec for measurement values. The JSON Record/Session
// codec in codec.go is the *interchange* format: human-inspectable, but
// it rounds times through float64 milliseconds. The encoders here are the
// *cache* format: every bit of every field round-trips, including float64
// payloads (via their IEEE-754 bit patterns) and nil-vs-empty slice
// distinctions, so a decoded value is indistinguishable from the original
// under reflect.DeepEqual. internal/simcache consumers rely on that
// exactness for their determinism guarantee.
//
// Layout conventions: all integers are little-endian; scalars are
// fixed-width 8 bytes, float64s travel as math.Float64bits; slices are a
// presence byte (0 = nil, 1 = present) followed by a uint64 length and the
// elements. Float64 elements are 8 bytes each. Duration elements — sorted
// nanosecond timestamps in practice — are delta-coded: each travels as a
// uint32 difference from its predecessor (the first from 0), and one that
// is below its predecessor or 2³²−1 ns or more ahead of it travels as the
// escape word 0xFFFFFFFF followed by its full 8 bytes. Every int64 still
// round-trips exactly; a packet trace just costs 4 bytes per timestamp
// instead of 8, and a decoder may have to read 12. Encoders compose by
// concatenation, and one Reader reads the concatenation back: it is the
// single place where a truncated, malformed or over-long value is
// rejected.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// ErrTruncated reports a buffer that ended before the value did.
var ErrTruncated = errors.New("measure: truncated binary value")

// AppendUint64 appends v little-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendInt64 appends v as its two's-complement bit pattern.
func AppendInt64(b []byte, v int64) []byte {
	return AppendUint64(b, uint64(v))
}

// AppendFloat64 appends v's IEEE-754 bit pattern (exact for every value,
// including negative zero, NaN payloads, and infinities).
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// deltaEscape is the delta word announcing a full 8-byte element. The
// largest delta that travels in 4 bytes is therefore 2³²−2 ns (≈4.29 s).
const deltaEscape = math.MaxUint32

// AppendDurations appends ds with the presence+length prefix, delta-coded
// (see the layout conventions above).
func AppendDurations(b []byte, ds []time.Duration) []byte {
	b = appendSliceHeader(b, ds != nil, len(ds))
	b = slices.Grow(b, 4*len(ds))
	var prev time.Duration
	for _, d := range ds {
		// The unsigned difference is exact whenever d >= prev, even across
		// the whole int64 range.
		if delta := uint64(d) - uint64(prev); d >= prev && delta < deltaEscape {
			b = binary.LittleEndian.AppendUint32(b, uint32(delta))
		} else {
			b = binary.LittleEndian.AppendUint32(b, deltaEscape)
			b = AppendInt64(b, int64(d))
		}
		prev = d
	}
	return b
}

// AppendFloat64s appends xs with the presence+length prefix.
func AppendFloat64s(b []byte, xs []float64) []byte {
	b = appendSliceHeader(b, xs != nil, len(xs))
	b = slices.Grow(b, 8*len(xs))
	for _, v := range xs {
		b = AppendFloat64(b, v)
	}
	return b
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendSliceHeader(b []byte, present bool, n int) []byte {
	b = AppendBool(b, present)
	if !present {
		return b
	}
	return AppendUint64(b, uint64(n))
}

// AppendPathBinary appends the exact encoding of p.
func AppendPathBinary(b []byte, p *Path) []byte {
	b = AppendInt64(b, int64(p.RTT))
	b = AppendInt64(b, int64(p.Duration))
	b = AppendDurations(b, p.Tx)
	return AppendDurations(b, p.Loss)
}

// DecodePathBinary consumes a Path written by AppendPathBinary.
func DecodePathBinary(b []byte) (Path, []byte, error) {
	r := NewReader(b)
	p := r.Path()
	return p, r.b, r.err
}

// AppendThroughputBinary appends the exact encoding of t.
func AppendThroughputBinary(b []byte, t Throughput) []byte {
	b = AppendInt64(b, int64(t.Interval))
	return AppendFloat64s(b, t.Samples)
}

// Reader decodes a value written by the Append functions, reading from
// the front of its buffer. Its first error sticks: every later read
// returns a zero value and consumes nothing, so a decoder reads field
// after field without checking and asks Done once at the end. Go
// evaluates the calls in a composite literal left to right, so a struct
// reads one field per line in the order its encoder wrote them.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Values it returns never alias b.
func NewReader(b []byte) *Reader {
	return &Reader{b: b}
}

// Done returns the first error, or an error if bytes remain unread: a
// cache entry is accepted only when it is exactly one value.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("measure: %d trailing bytes after value", len(r.b))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// take consumes n bytes, or fails with ErrTruncated and returns nil.
func (r *Reader) take(n int) []byte {
	if len(r.b) < n {
		r.fail(ErrTruncated)
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// Uint64 consumes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// Int64 consumes an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 consumes a float64 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Duration consumes a time.Duration written by AppendInt64.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Uint64()) }

// Bool consumes a byte written by AppendBool; any other byte is an error.
func (r *Reader) Bool() bool {
	s := r.take(1)
	if s == nil {
		return false
	}
	switch s[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errors.New("measure: invalid bool byte"))
	return false
}

// Str consumes a length-prefixed string. (Not String: a Reader is not a
// fmt.Stringer.)
func (r *Reader) Str() string {
	return string(r.take(r.Count(1)))
}

// Count consumes a uint64 element count and bounds it against the
// remaining bytes, minSize being the fewest an element can occupy, so a
// corrupt count can't trigger a huge allocation: on success at least
// count*minSize bytes remain.
func (r *Reader) Count(minSize int) int {
	n := r.Uint64()
	if n > uint64(len(r.b)/minSize) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// sliceLen consumes a slice's presence byte and, when present, its count.
func (r *Reader) sliceLen(minSize int) (int, bool) {
	if !r.Bool() {
		return 0, false
	}
	n := r.Count(minSize)
	return n, r.err == nil
}

// Durations consumes a delta-coded duration slice. The loop walks a local
// copy of the buffer rather than calling take per element, which made
// BenchmarkPathBinary's decode about 1.5× slower.
func (r *Reader) Durations() []time.Duration {
	n, ok := r.sliceLen(4)
	if !ok {
		return nil
	}
	out := make([]time.Duration, n)
	b := r.b
	var prev int64
	for i := range out {
		if len(b) < 4 { // the count bound covers 4 bytes each, escapes take 12
			r.fail(ErrTruncated)
			return nil
		}
		w := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if w != deltaEscape {
			prev += int64(w)
		} else {
			if len(b) < 8 {
				r.fail(ErrTruncated)
				return nil
			}
			prev = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		out[i] = time.Duration(prev)
	}
	r.b = b
	return out
}

// Float64s consumes a float64 slice.
func (r *Reader) Float64s() []float64 {
	n, ok := r.sliceLen(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	src := r.take(8 * n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// Path consumes a Path written by AppendPathBinary.
func (r *Reader) Path() Path {
	return Path{
		RTT:      r.Duration(),
		Duration: r.Duration(),
		Tx:       r.Durations(),
		Loss:     r.Durations(),
	}
}

// Throughput consumes a Throughput written by AppendThroughputBinary.
func (r *Reader) Throughput() Throughput {
	return Throughput{
		Interval: r.Duration(),
		Samples:  r.Float64s(),
	}
}
