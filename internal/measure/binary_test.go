package measure

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func randomPath(rng *rand.Rand) Path {
	p := Path{
		RTT:      time.Duration(rng.Int63n(int64(200 * time.Millisecond))),
		Duration: time.Duration(rng.Int63n(int64(60 * time.Second))),
	}
	// Cover nil, empty-but-non-nil, and populated slices.
	switch rng.Intn(3) {
	case 0: // nil
	case 1:
		p.Tx = []time.Duration{}
	default:
		p.Tx = make([]time.Duration, rng.Intn(200))
		for i := range p.Tx {
			p.Tx[i] = time.Duration(rng.Int63())
		}
	}
	if rng.Intn(2) == 0 {
		p.Loss = make([]time.Duration, rng.Intn(50))
		for i := range p.Loss {
			p.Loss[i] = -time.Duration(rng.Int63()) // negative durations must survive too
		}
	}
	return p
}

func randomThroughput(rng *rand.Rand) Throughput {
	t := Throughput{Interval: time.Duration(rng.Int63())}
	if rng.Intn(4) > 0 {
		t.Samples = make([]float64, rng.Intn(120))
		for i := range t.Samples {
			// Exercise the full float64 bit space, not just round values.
			t.Samples[i] = math.Float64frombits(rng.Uint64())
			if math.IsNaN(t.Samples[i]) {
				t.Samples[i] = rng.NormFloat64() * 1e9
			}
		}
	}
	return t
}

// TestPathBinaryRoundTripProperty: decode(encode(p)) must reproduce p
// exactly, including nil-vs-empty slice identity, across random values.
func TestPathBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		p := randomPath(rng)
		buf := AppendPathBinary([]byte("prefix"), &p)
		got, rest, err := DecodePathBinary(buf[len("prefix"):])
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d leftover bytes", trial, len(rest))
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("trial %d: round trip mismatch:\n got %#v\nwant %#v", trial, got, p)
		}
	}
}

func TestThroughputBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		tp := randomThroughput(rng)
		r := NewReader(AppendThroughputBinary(nil, tp))
		got := r.Throughput()
		if err := r.Done(); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, tp) {
			t.Fatalf("trial %d: round trip mismatch:\n got %#v\nwant %#v", trial, got, tp)
		}
	}
}

func TestFloat64BinaryExactBits(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3.0}
	r := NewReader(AppendFloat64s(nil, specials))
	got := r.Float64s()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i, want := range specials {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("value %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	// NaN must round-trip by bit pattern (DeepEqual can't check it).
	r = NewReader(AppendFloat64(nil, math.NaN()))
	if v, err := r.Float64(), r.Done(); err != nil || !math.IsNaN(v) {
		t.Errorf("NaN did not round trip: %v %v", v, err)
	}
}

// TestBinaryDecodeTruncation: every strict prefix of a valid encoding
// must fail with an error — never panic, never succeed with wrong data.
// The second path carries escapes, so cuts land inside them too.
func TestBinaryDecodeTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPath(rng)
	for len(p.Tx) == 0 { // make sure there is a payload to truncate
		p = randomPath(rng)
	}
	for _, p := range []Path{p, escapePath()} {
		full := AppendPathBinary(nil, &p)
		for cut := 0; cut < len(full); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("cut=%d: decode panicked: %v", cut, r)
					}
				}()
				if _, _, err := DecodePathBinary(full[:cut]); err == nil {
					t.Fatalf("cut=%d of %d: truncated encoding decoded without error", cut, len(full))
				}
			}()
		}
	}
	// A huge length claim must error out instead of allocating.
	evil := AppendInt64(nil, 1)
	evil = AppendInt64(evil, 1)
	evil = append(evil, 1) // present
	evil = AppendUint64(evil, math.MaxUint64)
	if _, _, err := DecodePathBinary(evil); err == nil {
		t.Fatal("oversized length claim decoded without error")
	}
}

func TestStringBinaryRoundTrip(t *testing.T) {
	for _, s := range []string{"", "tcpbulk", "exotic \x00\xff bytes", "日本語"} {
		r := NewReader(AppendString(nil, s))
		if got, err := r.Str(), r.Done(); err != nil || got != s {
			t.Errorf("%q: got %q err=%v", s, got, err)
		}
	}
	r := NewReader(AppendUint64(nil, 99))
	r.Str()
	if r.Done() == nil {
		t.Error("string length beyond buffer decoded without error")
	}
}
