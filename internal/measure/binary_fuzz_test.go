package measure

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// The fixed-width duration-slice codec that delta coding replaced, kept
// verbatim as the oracle of FuzzDurationsCodec and as the twin row of
// BenchmarkPathBinary (hence the exported names: the benchmark lives in
// package measure_test). Nothing outside the tests reads or writes this
// layout.

func AppendDurationsFixed(b []byte, ds []time.Duration) []byte {
	b = appendSliceHeader(b, ds == nil, len(ds))
	for _, d := range ds {
		b = AppendInt64(b, int64(d))
	}
	return b
}

func DecodeDurationsFixed(b []byte) ([]time.Duration, []byte, error) {
	n, present, rest, err := decodeSliceHeader(b, 8)
	if err != nil || !present {
		return nil, rest, err
	}
	out := make([]time.Duration, n)
	for i := range out {
		var v int64
		if v, rest, err = DecodeInt64(rest); err != nil {
			return nil, nil, err
		}
		out[i] = time.Duration(v)
	}
	return out, rest, nil
}

// AppendPathFixed is AppendPathBinary over the fixed-width slices.
func AppendPathFixed(b []byte, p *Path) []byte {
	b = AppendInt64(b, int64(p.RTT))
	b = AppendInt64(b, int64(p.Duration))
	b = AppendDurationsFixed(b, p.Tx)
	return AppendDurationsFixed(b, p.Loss)
}

// DecodePathFixed is DecodePathBinary over the fixed-width slices.
func DecodePathFixed(b []byte) (Path, []byte, error) {
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
	if p.Tx, b, err = DecodeDurationsFixed(b); err != nil {
		return p, nil, err
	}
	if p.Loss, b, err = DecodeDurationsFixed(b); err != nil {
		return p, nil, err
	}
	return p, b, nil
}

// escapePath is a small trace with every kind of element the delta layout
// distinguishes: plain 4-byte steps, a repeat (delta 0), an out-of-order
// pair, the largest 4-byte gap and the two smallest escaped ones, a
// negative value and both ends of the int64 range.
func escapePath() Path {
	const maxDelta = math.MaxUint32 - 1
	return Path{
		RTT: 35 * time.Millisecond, Duration: 45 * time.Second,
		Tx: []time.Duration{0, 1200, 1200, 2500, 2400,
			2400 + maxDelta, 2400 + maxDelta + (maxDelta + 1), 2400 + maxDelta + (maxDelta + 1) + (maxDelta + 2),
			-5, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 7},
		Loss: []time.Duration{3 * time.Second, 9 * time.Second, 9*time.Second + 1},
	}
}

// TestDurationsDeltaLayout pins the bytes: a change here is a change of
// every cache entry's meaning and needs a schema stamp bump with it.
func TestDurationsDeltaLayout(t *testing.T) {
	word := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	escaped := func(b []byte, v int64) []byte { return AppendInt64(word(b, math.MaxUint32), v) }
	header := func(n uint64) []byte { return AppendUint64([]byte{1}, n) }
	for _, tc := range []struct {
		name string
		ds   []time.Duration
		want []byte
	}{
		{"nil", nil, []byte{0}},
		{"empty", []time.Duration{}, header(0)},
		{"first from zero", []time.Duration{7}, word(header(1), 7)},
		{"ascending and equal", []time.Duration{5, 5, 9}, word(word(word(header(3), 5), 0), 4)},
		{"largest plain gap", []time.Duration{1, 1 + math.MaxUint32 - 1}, word(word(header(2), 1), math.MaxUint32-1)},
		{"smallest escaped gap", []time.Duration{1, 1 + math.MaxUint32}, escaped(word(header(2), 1), 1+math.MaxUint32)},
		{"out of order", []time.Duration{9, 8, 10}, word(escaped(word(header(3), 9), 8), 2)},
		{"negative first", []time.Duration{-1, 0}, word(escaped(header(2), -1), 1)},
		{"whole range", []time.Duration{math.MinInt64, math.MaxInt64},
			escaped(escaped(header(2), math.MinInt64), math.MaxInt64)},
	} {
		got := AppendDurations(nil, tc.ds)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: encoded % x, want % x", tc.name, got, tc.want)
		}
		back, rest, err := DecodeDurations(got)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(back, tc.ds) {
			t.Errorf("%s: decoded %v (rest %d, err %v), want %v", tc.name, back, len(rest), err, tc.ds)
		}
	}
}

// durationsFromFuzz turns fuzz bytes into a duration slice: no bytes is
// nil, one byte is empty, and every further byte is one element — a step
// from its predecessor chosen to land on each side of every branch of the
// delta coder.
func durationsFromFuzz(data []byte) []time.Duration {
	if len(data) == 0 {
		return nil
	}
	ds := make([]time.Duration, 0, len(data)-1)
	at := int64(data[0]) * 1e6
	for i, op := range data[1:] {
		operand := int64(op>>4)*1500 + int64(i%7) // ≤ 22.5 µs: a packet gap
		switch op % 16 {
		case 0:
			at -= operand // out of order
		case 1:
			at = -at // negative (or back to positive)
		case 2:
			at = math.MinInt64 + operand%3
		case 3:
			at = math.MaxInt64 - operand%3
		case 4:
			at += math.MaxUint32 - 1 // the largest 4-byte delta
		case 5:
			at += math.MaxUint32 // would collide with the escape word
		case 6:
			at += math.MaxUint32 + 1
		case 7:
			at = operand << 40 // far ahead or far behind
		default:
			at += operand // ascending, wrapping at the end of the range
		}
		ds = append(ds, time.Duration(at))
	}
	return ds
}

// FuzzDurationsCodec checks the delta coder differentially against the
// fixed-width codec it replaced, and the decoder on arbitrary bytes.
func FuzzDurationsCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0x18, 0x28, 0x00, 0x14, 0x15, 0x16, 0x01, 0x02, 0x03, 0x13, 0x07, 0xf7, 0x38})
	p := escapePath()
	full := AppendPathBinary(nil, &p)
	f.Add(full)
	// The escape-bearing path cut at every byte from its first escape on.
	for cut := 16 + 9 + 4*4; cut < len(full); cut++ {
		f.Add(full[:cut])
	}
	// A length claim of 2⁶³, with and without bytes behind it.
	claim := AppendUint64(append(AppendInt64(AppendInt64(nil, 1), 1), 1), 1<<63)
	f.Add(claim)
	f.Add(append(claim, make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) A generated slice survives the new codec exactly, and reads
		// back as what the fixed-width codec reads back.
		ds := durationsFromFuzz(data)
		enc := AppendDurations([]byte("prefix"), ds)[len("prefix"):]
		got, rest, err := DecodeDurations(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip of %v: rest %d, err %v", ds, len(rest), err)
		}
		if !reflect.DeepEqual(got, ds) {
			t.Fatalf("round trip changed the slice:\n got %v\nwant %v", got, ds)
		}
		want, rest, err := DecodeDurationsFixed(AppendDurationsFixed(nil, ds))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("delta and fixed-width codecs disagree:\ndelta %v\nfixed %v (rest %d, err %v)", got, want, len(rest), err)
		}
		if ds != nil && (len(enc) < 9+4*len(ds) || len(enc) > 9+12*len(ds)) {
			t.Fatalf("%d elements encoded in %d bytes", len(ds), len(enc))
		}

		// (b) Arbitrary bytes: no panic, no more elements than the input
		// could hold, and an accepted value is one the encoder can carry.
		p, rest, err := DecodePathBinary(data)
		if err != nil {
			return
		}
		if len(p.Tx)+len(p.Loss) > len(data)/4 {
			t.Fatalf("%d input bytes decoded into %d+%d elements", len(data), len(p.Tx), len(p.Loss))
		}
		if len(rest) > len(data) {
			t.Fatalf("rest (%d bytes) longer than the input (%d)", len(rest), len(data))
		}
		again, rest, err := DecodePathBinary(AppendPathBinary(nil, &p))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(again, p) {
			t.Fatalf("accepted value does not re-encode to itself: %+v → %+v (rest %d, err %v)", p, again, len(rest), err)
		}
	})
}

// TestDecodeDurationsEscapeTruncation: an input that ends inside an escape
// — after the escape word, anywhere in its 8 bytes, or leaving too little
// for the elements after it — is ErrTruncated, not a panic and not a short
// slice.
func TestDecodeDurationsEscapeTruncation(t *testing.T) {
	ds := []time.Duration{5, -1, 6, 7} // word, escape, word, word
	full := AppendDurations(nil, ds)
	for cut := 9; cut < len(full); cut++ {
		if _, _, err := DecodeDurations(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d of %d: err = %v, want ErrTruncated", cut, len(full), err)
		}
	}
	// Exactly 4 bytes per claimed element, the last word an escape: the
	// header bound holds and only the escape's own check can refuse it.
	b := AppendUint64([]byte{1}, 2)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, math.MaxUint32)
	if _, _, err := DecodeDurations(b); !errors.Is(err, ErrTruncated) {
		t.Errorf("escape word at the end of the input: err = %v, want ErrTruncated", err)
	}
}
