package experiments

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// TestSimCacheSchemaGuards pins the shapes simCacheSchema covers: if
// SimSpec or SimResult grows, shrinks, or reorders fields, this fails
// until appendSpec/encodeResult/decodeResult are extended AND
// simCacheSchema is bumped (stale entries would otherwise alias the new
// meaning).
func TestSimCacheSchemaGuards(t *testing.T) {
	if n := reflect.TypeOf(SimSpec{}).NumField(); n != 15 {
		t.Errorf("SimSpec has %d fields, appendSpec encodes 15: extend appendSpec and bump simCacheSchema", n)
	}
	if n := reflect.TypeOf(SimResult{}).NumField(); n != 10 {
		t.Errorf("SimResult has %d fields, the codec handles 10: extend encodeResult/decodeResult and bump simCacheSchema", n)
	}
	if simCacheSchema != "wehey/simcache/v3" {
		// Not an error — just force the author of a bump to also refresh
		// the two counts above deliberately.
		t.Log("simCacheSchema bumped; confirm the field counts in this test were revisited")
	}
}

func TestAppendSpecCanonicalizesDefaults(t *testing.T) {
	// A spec leaning on fill() defaults and one spelling them out must
	// share a cache key...
	sparse := SimSpec{App: TCPBulkApp, Seed: 7}
	sparse.fill()
	explicit := SimSpec{
		App: TCPBulkApp, InputFactor: 1.5, QueueFactor: 0.5, BgShare: 0.5,
		BgAggregate: 32e6, RTT1: 35 * time.Millisecond, RTT2: 35 * time.Millisecond,
		Duration: 45 * time.Second, Seed: 7,
	}
	explicit.fill()
	if !bytes.Equal(appendSpec(nil, &sparse), appendSpec(nil, &explicit)) {
		t.Error("filled defaulted spec and explicit-default spec encode differently")
	}
	// ...while every real parameter change must change the encoding.
	base := appendSpec(nil, &explicit)
	for name, mut := range map[string]func(*SimSpec){
		"App":              func(s *SimSpec) { s.App = "zoom" },
		"InputFactor":      func(s *SimSpec) { s.InputFactor = 2.5 },
		"QueueFactor":      func(s *SimSpec) { s.QueueFactor = 1 },
		"BgShare":          func(s *SimSpec) { s.BgShare = 0.75 },
		"BgAggregate":      func(s *SimSpec) { s.BgAggregate = 64e6 },
		"RTT1":             func(s *SimSpec) { s.RTT1 = 10 * time.Millisecond },
		"RTT2":             func(s *SimSpec) { s.RTT2 = 120 * time.Millisecond },
		"Placement":        func(s *SimSpec) { s.Placement = LimiterNonCommon },
		"CongestionFactor": func(s *SimSpec) { s.CongestionFactor = 1.15 },
		"Duration":         func(s *SimSpec) { s.Duration = 20 * time.Second },
		"Unmodified":       func(s *SimSpec) { s.Unmodified = true },
		"BBR":              func(s *SimSpec) { s.BBR = true },
		"BackgroundMode":   func(s *SimSpec) { s.BackgroundMode = BgModeFluid },
		"BgFlowRate":       func(s *SimSpec) { s.BgFlowRate = 105e3 },
		"Seed":             func(s *SimSpec) { s.Seed = 8 },
	} {
		mod := explicit
		mut(&mod)
		if bytes.Equal(base, appendSpec(nil, &mod)) {
			t.Errorf("changing %s did not change the spec encoding", name)
		}
	}
}

// randomResult builds a SimResult with adversarial shapes: nil, empty,
// and populated slices/maps, full-bit-space floats, negative durations.
func randomResult(rng *rand.Rand) SimResult {
	randPath := func() measure.Path {
		p := measure.Path{
			RTT:      time.Duration(rng.Int63n(int64(time.Second))),
			Duration: time.Duration(rng.Int63n(int64(time.Minute))),
		}
		if rng.Intn(4) > 0 {
			p.Tx = make([]time.Duration, rng.Intn(100))
			for i := range p.Tx {
				p.Tx[i] = time.Duration(rng.Int63())
			}
		}
		if rng.Intn(2) == 0 {
			p.Loss = []time.Duration{}
		}
		return p
	}
	r := SimResult{M1: randPath(), M2: randPath()}
	for i := 0; i < 2; i++ {
		r.RetransRate[i] = math.Float64frombits(rng.Uint64())
		if math.IsNaN(r.RetransRate[i]) {
			r.RetransRate[i] = rng.Float64()
		}
		r.QueueDelay[i] = time.Duration(rng.Int63())
		r.LossRate[i] = rng.Float64()
		r.Tput[i] = measure.Throughput{Interval: time.Duration(rng.Int63n(int64(time.Second)))}
		if rng.Intn(3) > 0 {
			r.Tput[i].Samples = make([]float64, rng.Intn(100))
			for j := range r.Tput[i].Samples {
				r.Tput[i].Samples[j] = rng.NormFloat64() * 1e7
			}
		}
	}
	r.Events = rng.Int63()
	r.BgEvents = rng.Int63()
	r.BgFlows = rng.Int63()
	switch rng.Intn(3) {
	case 0: // nil map
	case 1:
		r.Drops = map[string]int{}
	default:
		r.Drops = map[string]int{}
		for _, k := range []string{"tbf_c", "tbf_1", "tbf_2", "link_1", "link_2"} {
			if rng.Intn(2) == 0 {
				r.Drops[k] = int(rng.Int31())
			}
		}
	}
	return r
}

// TestSimResultCodecRoundTripProperty: decode(encode(r)) must be
// DeepEqual to r — the cached-equals-recomputed requirement — across
// random result shapes.
func TestSimResultCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		r := randomResult(rng)
		got, err := decodeResult(encodeResult(r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("trial %d: round trip mismatch:\n got %#v\nwant %#v", trial, got, r)
		}
	}
}

// escapeResult is a randomResult whose first path is a packet trace with
// the two things the delta-coded timestamps escape: an out-of-order pair
// and a gap beyond 2³²−2 ns (≈4.29 s).
func escapeResult(rng *rand.Rand) SimResult {
	r := randomResult(rng)
	r.M1.Tx = []time.Duration{time.Millisecond, 2 * time.Millisecond, 2*time.Millisecond - 1,
		3 * time.Millisecond, 3*time.Millisecond + 4300*time.Millisecond, 8 * time.Second}
	r.M1.Loss = []time.Duration{2 * time.Millisecond, 7 * time.Second}
	return r
}

// goldenResult is a small SimResult with every shape the entry layout
// distinguishes: nil and empty slices, an escaped timestamp, a Drops map.
func goldenResult() SimResult {
	return SimResult{
		M1:          measure.Path{RTT: 35 * time.Millisecond, Duration: 2 * time.Second, Tx: []time.Duration{1000, 2500, 1500}},
		M2:          measure.Path{RTT: 40 * time.Millisecond, Duration: 2 * time.Second, Tx: []time.Duration{}, Loss: []time.Duration{2500}},
		RetransRate: [2]float64{0.25, 0},
		QueueDelay:  [2]time.Duration{3 * time.Millisecond, 0},
		LossRate:    [2]float64{0.5, 0.125},
		Tput: [2]measure.Throughput{
			{Interval: 20 * time.Millisecond, Samples: []float64{}},
			{Interval: 20 * time.Millisecond, Samples: []float64{1.5e6}},
		},
		Drops:    map[string]int{"tbf_c": 3, "link_1": 1},
		Events:   1234,
		BgEvents: 56,
		BgFlows:  7,
	}
}

// goldenResultEntry is goldenResult's cache value, field by field. It
// pins the layout: a change here changes the meaning of every entry on
// disk and needs a simCacheSchema bump with it.
var goldenResultEntry = hexBytes(
	"c00e160200000000",             // M1.RTT 35ms
	"0094357700000000",             // M1.Duration 2s
	"010300000000000000",           // M1.Tx present, 3 elements
	"e8030000",                     // 1000: +1000
	"dc050000",                     // 2500: +1500
	"ffffffffdc05000000000000",     // 1500: below its predecessor, escaped
	"00",                           // M1.Loss nil
	"005a620200000000",             // M2.RTT 40ms
	"0094357700000000",             // M2.Duration 2s
	"010000000000000000",           // M2.Tx present, empty
	"010100000000000000",           // M2.Loss present, 1 element
	"c4090000",                     // 2500: +2500
	"000000000000d03f",             // RetransRate[0] 0.25
	"0000000000000000",             // RetransRate[1] 0
	"c0c62d0000000000",             // QueueDelay[0] 3ms
	"0000000000000000",             // QueueDelay[1] 0
	"000000000000e03f",             // LossRate[0] 0.5
	"000000000000c03f",             // LossRate[1] 0.125
	"002d310100000000",             // Tput[0].Interval 20ms
	"010000000000000000",           // Tput[0].Samples present, empty
	"002d310100000000",             // Tput[1].Interval 20ms
	"010100000000000000",           // Tput[1].Samples present, 1 element
	"0000000060e33641",             // 1.5e6
	"010200000000000000",           // Drops present, 2 entries in key order
	"06000000000000006c696e6b5f31", // "link_1"
	"0100000000000000",             // 1
	"05000000000000007462665f63",   // "tbf_c"
	"0300000000000000",             // 3
	"d204000000000000",             // Events 1234
	"3800000000000000",             // BgEvents 56
	"0700000000000000",             // BgFlows 7
)

// hexBytes decodes the concatenation of hex strings.
func hexBytes(parts ...string) []byte {
	b, err := hex.AppendDecode(nil, []byte(strings.Join(parts, "")))
	if err != nil {
		panic(err)
	}
	return b
}

// TestSimResultCodecTruncation: the golden result encodes to the golden
// entry, and for it and two random results (one with escaped timestamps)
// the entry decodes back to the value, every strict prefix is an error —
// never a panic, never a result — and so is one trailing byte.
func TestSimResultCodecTruncation(t *testing.T) {
	if got := encodeResult(goldenResult()); !bytes.Equal(got, goldenResultEntry) {
		t.Fatalf("golden result encodes as\n% x\nwant\n% x", got, goldenResultEntry)
	}
	rng := rand.New(rand.NewSource(12))
	for _, r := range []SimResult{goldenResult(), randomResult(rng), escapeResult(rng)} {
		full := encodeResult(r)
		if got, err := decodeResult(full); err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: %v", err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeResult(full[:cut]); err == nil {
				t.Fatalf("cut=%d of %d: truncated encoding decoded without error", cut, len(full))
			}
		}
		if _, err := decodeResult(append(full, 0)); err == nil {
			t.Error("trailing byte accepted")
		}
	}
}

// FuzzSimResultCodec: arbitrary bytes never panic the decoder, and an
// accepted entry is canonical after one round: e := encode(decode(x))
// decodes and re-encodes to e again. (x itself may differ from e — a
// Drops map listed out of key order, say — and DeepEqual cannot compare
// NaN payloads, hence bytes.)
func FuzzSimResultCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	f.Add([]byte{})
	f.Add(goldenResultEntry)
	f.Add(encodeResult(randomResult(rng)))
	f.Add(encodeResult(escapeResult(rng)))
	f.Fuzz(func(t *testing.T, x []byte) {
		r, err := decodeResult(x)
		if err != nil {
			return
		}
		e := encodeResult(r)
		again, err := decodeResult(e)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if got := encodeResult(again); !bytes.Equal(got, e) {
			t.Fatalf("re-encoding is not stable:\n% x\n% x", e, got)
		}
	})
}

// shortSpec is a fast (2 s) but real simulation for cache-behaviour tests.
func shortSpec(seed int64) SimSpec {
	return SimSpec{
		App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5,
		Duration: 2 * time.Second, Seed: seed,
	}
}

// TestDiskSimCacheServesExactResult: a result served from a fresh cache
// over a populated directory must be DeepEqual to the recomputed one, and
// a corrupted entry must fall back to recomputation — never a wrong
// result.
func TestDiskSimCacheServesExactResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	spec := shortSpec(41)
	truth := RunSim(spec)

	cold, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Run(spec); !reflect.DeepEqual(got, truth) {
		t.Fatal("cold cache result differs from direct RunSim")
	}

	warm, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Run(spec); !reflect.DeepEqual(got, truth) {
		t.Fatal("disk-served result differs from recomputed result")
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v, want one disk hit", st)
	}

	// The same through a separate directory for a result no simulation
	// produces: timestamps out of order and more than 4.3 s apart, which
	// the delta-coded entry carries as escapes.
	odd := escapeResult(rand.New(rand.NewSource(41)))
	oddDir := t.TempDir()
	oddKey := simcache.KeyOf(simCacheSchema, []byte("escape-bearing result"))
	for pass, want := range []simcache.Stats{{Misses: 1}, {DiskHits: 1}} {
		sc, err := NewDiskSimCache(oddDir)
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.inner.Get(oddKey, func() SimResult { return odd }); !reflect.DeepEqual(got, odd) {
			t.Fatalf("pass %d: escape-bearing result changed on its way through the cache", pass)
		}
		if st := sc.Stats(); st.Misses != want.Misses || st.DiskHits != want.DiskHits || st.Corrupt != 0 {
			t.Fatalf("pass %d: stats = %+v", pass, st)
		}
	}

	// Corrupt every byte-flipped entry under dir: the next cache must
	// recompute the identical result.
	var entries []string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return err
	})
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly 1 cache entry, have %d (err=%v)", len(entries), err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := repaired.Run(spec); !reflect.DeepEqual(got, truth) {
		t.Fatal("result after corruption differs from truth")
	}
	if st := repaired.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after corruption = %+v, want corrupt=1 misses=1", st)
	}
}

// TestAblationPoolSimulatesOncePerSpec is the dedup satellite: the
// detector ablations (correlation, intervals, vote) each regenerate the
// same ablationRuns pool; with a shared cache the pool must simulate
// exactly once per unique spec, with every later request a hit.
func TestAblationPoolSimulatesOncePerSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	cfg := Config{Trials: 1, Seed: 3, Duration: 2 * time.Second, Cache: NewSimCache()}
	// 3 input factors × 2 background shares × Trials=1, FN + FP variants.
	const unique = 3 * 2 * 1 * 2

	AblationCorrelation(cfg)
	st := cfg.Cache.Stats()
	if st.Misses != unique || st.Hits != 0 {
		t.Fatalf("first ablation: stats = %+v, want %d misses", st, unique)
	}
	AblationIntervals(cfg)
	AblationVote(cfg)
	st = cfg.Cache.Stats()
	if st.Misses != unique {
		t.Errorf("pool re-simulated: %d misses across three ablations, want %d", st.Misses, unique)
	}
	if st.Hits != 2*unique {
		t.Errorf("hits = %d, want %d (two full re-requests of the pool)", st.Hits, 2*unique)
	}
}

// TestCacheModesRenderByteIdentically is the determinism oracle at test
// scale: cache off, cold disk cache, and warm disk cache must render
// byte-identical reports — a cached result is indistinguishable from a
// recomputed one.
func TestCacheModesRenderByteIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	names := []string{"figure3", "table5", "ablation-vote"}
	render := func(cache *SimCache) []byte {
		var buf bytes.Buffer
		cfg := Config{Trials: 1, Seed: 5, Duration: 2 * time.Second, Workers: 2, Cache: cache}
		for _, name := range names {
			if err := Run(&buf, name, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	off := render(nil)

	dir := t.TempDir()
	coldCache, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := render(coldCache)
	if !bytes.Equal(off, cold) {
		t.Error("cache-off and cold-cache renders differ")
	}
	if st := coldCache.Stats(); st.Misses == 0 {
		t.Errorf("cold cache ran no simulations: %+v", st)
	}

	warmCache, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := render(warmCache)
	if !bytes.Equal(off, warm) {
		t.Error("cache-off and warm-cache renders differ")
	}
	if st := warmCache.Stats(); st.Misses != 0 {
		t.Errorf("warm cache re-simulated %d specs: %+v", st.Misses, st)
	}
}
