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
// instead of 8, and a decoder may have to read 12. Decoders consume from
// the front of the buffer and return the rest, so encoders compose by
// concatenation.

import (
	"encoding/binary"
	"errors"
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
	b = appendSliceHeader(b, ds == nil, len(ds))
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
	b = appendSliceHeader(b, xs == nil, len(xs))
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

func appendSliceHeader(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	b = append(b, 1)
	return AppendUint64(b, uint64(n))
}

// DecodeUint64 consumes a uint64 from the front of b.
func DecodeUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// DecodeInt64 consumes an int64.
func DecodeInt64(b []byte) (int64, []byte, error) {
	v, rest, err := DecodeUint64(b)
	return int64(v), rest, err
}

// DecodeFloat64 consumes a float64 bit pattern.
func DecodeFloat64(b []byte) (float64, []byte, error) {
	v, rest, err := DecodeUint64(b)
	return math.Float64frombits(v), rest, err
}

// decodeSliceHeader consumes the presence byte and length. elemSize, the
// fewest bytes an element can occupy, bounds the length claim against the
// remaining bytes so a corrupt length can't trigger a huge allocation: on
// success len(rest) >= n*elemSize.
func decodeSliceHeader(b []byte, elemSize int) (n int, present bool, rest []byte, err error) {
	if len(b) < 1 {
		return 0, false, nil, ErrTruncated
	}
	switch b[0] {
	case 0:
		return 0, false, b[1:], nil
	case 1:
	default:
		return 0, false, nil, errors.New("measure: invalid slice presence byte")
	}
	v, rest, err := DecodeUint64(b[1:])
	if err != nil {
		return 0, false, nil, err
	}
	if v > uint64(len(rest)/elemSize) {
		return 0, false, nil, ErrTruncated
	}
	return int(v), true, rest, nil
}

// DecodeDurations consumes a delta-coded duration slice.
func DecodeDurations(b []byte) ([]time.Duration, []byte, error) {
	n, present, rest, err := decodeSliceHeader(b, 4)
	if err != nil || !present {
		return nil, rest, err
	}
	out := make([]time.Duration, n)
	var prev int64
	for i := range out {
		if len(rest) < 4 { // the header bound covers 4 bytes each, escapes take 12
			return nil, nil, ErrTruncated
		}
		w := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if w != deltaEscape {
			prev += int64(w)
		} else {
			if len(rest) < 8 {
				return nil, nil, ErrTruncated
			}
			prev = int64(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		out[i] = time.Duration(prev)
	}
	return out, rest, nil
}

// DecodeFloat64s consumes a float64 slice.
func DecodeFloat64s(b []byte) ([]float64, []byte, error) {
	n, present, rest, err := decodeSliceHeader(b, 8)
	if err != nil || !present {
		return nil, rest, err
	}
	out := make([]float64, n)
	src := rest[:8*n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out, rest[8*n:], nil
}

// DecodeString consumes a length-prefixed string.
func DecodeString(b []byte) (string, []byte, error) {
	n, rest, err := DecodeUint64(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, ErrTruncated
	}
	return string(rest[:n]), rest[n:], nil
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
	var p Path
	var rtt, dur int64
	var err error
	if rtt, b, err = DecodeInt64(b); err != nil {
		return p, nil, err
	}
	if dur, b, err = DecodeInt64(b); err != nil {
		return p, nil, err
	}
	p.RTT, p.Duration = time.Duration(rtt), time.Duration(dur)
	if p.Tx, b, err = DecodeDurations(b); err != nil {
		return p, nil, err
	}
	if p.Loss, b, err = DecodeDurations(b); err != nil {
		return p, nil, err
	}
	return p, b, nil
}

// AppendThroughputBinary appends the exact encoding of t.
func AppendThroughputBinary(b []byte, t Throughput) []byte {
	b = AppendInt64(b, int64(t.Interval))
	return AppendFloat64s(b, t.Samples)
}

// DecodeThroughputBinary consumes a Throughput written by
// AppendThroughputBinary.
func DecodeThroughputBinary(b []byte) (Throughput, []byte, error) {
	var t Throughput
	iv, b, err := DecodeInt64(b)
	if err != nil {
		return t, nil, err
	}
	t.Interval = time.Duration(iv)
	if t.Samples, b, err = DecodeFloat64s(b); err != nil {
		return t, nil, err
	}
	return t, b, nil
}
