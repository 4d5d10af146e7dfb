package experiments

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/framing"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// TestSimCacheSchemaGuards pins the shapes simCacheSchema covers: if
// SimSpec or SimResult grows, shrinks, or reorders fields, this fails
// until appendSpec/encodeResult/readResult are extended AND
// simCacheSchema is bumped (stale entries would otherwise alias the new
// meaning).
func TestSimCacheSchemaGuards(t *testing.T) {
	if n := reflect.TypeOf(SimSpec{}).NumField(); n != 15 {
		t.Errorf("SimSpec has %d fields, appendSpec encodes 15: extend appendSpec and bump simCacheSchema", n)
	}
	if n := reflect.TypeOf(SimResult{}).NumField(); n != 10 {
		t.Errorf("SimResult has %d fields, the codec handles 10: extend encodeResult/readResult and bump simCacheSchema", n)
	}
	if simCacheSchema != "wehey/simcache/v5" {
		// Not an error — just force the author of a bump to also refresh
		// the two counts above deliberately.
		t.Log("simCacheSchema bumped; confirm the field counts in this test were revisited")
	}
}

// TestCacheKeysEncodeOnTheStack: cacheKeys keys a spec by KeyOf over
// appendSpec's encoding, byte for byte, whether the encoding fits its
// stack buffer or not, and keying a spec that fits allocates nothing.
func TestCacheKeysEncodeOnTheStack(t *testing.T) {
	for _, spec := range []SimSpec{
		{App: TCPBulkApp, Seed: 7},
		{App: "zoom", BackgroundMode: BgModeFluid, Placement: LimiterNonCommon, Seed: 1},
		{App: strings.Repeat("x", specBufSize), Seed: 2},
	} {
		rkey, vkey := cacheKeys(&spec)
		want := simcache.KeyOf(simCacheSchema, appendSpec(nil, &spec))
		if rkey != want || vkey != simcache.KeyOf(verdictStamp, want.Bytes()) {
			t.Errorf("%.12s: keys %s %s, want %s and its verdict's", spec.App, rkey, vkey, want)
		}
	}
	spec := SimSpec{App: TCPBulkApp, Seed: 7}
	if n := testing.AllocsPerRun(100, func() { cacheKeys(&spec) }); n != 0 {
		t.Errorf("cacheKeys allocates %v times per spec, want 0", n)
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

// TestSimResultCodecRoundTripProperty: a result entry decodes to a result
// DeepEqual to the original — the cached-equals-recomputed requirement —
// across random result shapes.
func TestSimResultCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		r := randomResult(rng)
		got, err := decodeResult(encodeResult(r))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("trial %d: round trip mismatch:\n got %#v\nwant %#v", i, got, r)
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

// goldenResultEntry is goldenResult's result entry, field by field. It pins the layout: a change here changes the meaning of every
// entry on disk and needs a simCacheSchema bump with it.
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
	for _, res := range []SimResult{goldenResult(), randomResult(rng), escapeResult(rng)} {
		full := encodeResult(res)
		got, err := decodeResult(full)
		if err != nil || !reflect.DeepEqual(got, res) {
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

// FuzzSimResultCodec fuzzes the result entry's decoder. Arbitrary bytes
// never panic it, and an accepted entry is canonical after one round:
// e := encode(decode(x)) decodes and re-encodes to e again. (x itself may
// differ from e — a Drops map listed out of key order — and DeepEqual
// cannot compare NaN payloads, hence bytes.)
func FuzzSimResultCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	f.Add([]byte{})
	f.Add(goldenResultEntry)
	f.Add(encodeResult(randomResult(rng)))
	f.Add(encodeResult(escapeResult(rng)))
	corpus := verdictCorpus() // loss logs of measure.SynthPair, one lossless
	f.Add(encodeResult(corpus[0].res))
	f.Add(encodeResult(corpus[len(corpus)-1].res))
	f.Fuzz(func(t *testing.T, x []byte) {
		res, err := decodeResult(x)
		if err != nil {
			return
		}
		e := encodeResult(res)
		again, err := decodeResult(e)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if got := encodeResult(again); !bytes.Equal(got, e) {
			t.Fatalf("re-encoding is not stable:\n% x\n% x", e, got)
		}
	})
}

// entryFile is the file under dir that holds key's entry.
func entryFile(tb testing.TB, dir string, key simcache.Key) string {
	tb.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(strings.ReplaceAll(path, string(filepath.Separator), ""), key.String()) {
			found = append(found, path)
		}
		return err
	})
	if err != nil || len(found) != 1 {
		tb.Fatalf("want one entry for %s under %s, have %v (err %v)", key, dir, found, err)
	}
	return found[0]
}

// verdictLogImage is a verdict log holding one record per value, each
// under key: the log's magic, then a frame of the key and the value.
func verdictLogImage(key simcache.Key, values ...[]byte) []byte {
	raw := []byte("WHYSIML1")
	for _, v := range values {
		raw = framing.Append(raw, append(key.Bytes(), v...))
	}
	return raw
}

// countEntries counts the files under dir.
func countEntries(tb testing.TB, dir string) int {
	tb.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
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
	if got := (Config{Cache: cold}).Sim(spec); !reflect.DeepEqual(got, truth) {
		t.Fatal("cold cache result differs from direct RunSim")
	}

	warm, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Config{Cache: warm}).Sim(spec); !reflect.DeepEqual(got, truth) {
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
		if got := sc.results.Get(oddKey, func() *trial { return &trial{res: odd} }); !reflect.DeepEqual(got.res, odd) {
			t.Fatalf("pass %d: escape-bearing result changed on its way through the cache", pass)
		}
		if st := sc.Stats(); st.Misses != want.Misses || st.DiskHits != want.DiskHits || st.Corrupt != 0 {
			t.Fatalf("pass %d: stats = %+v", pass, st)
		}
	}

	// The directory holds the result's entry and the verdict log, which
	// holds exactly the trial's verdict record.
	if n := countEntries(t, dir); n != 2 {
		t.Fatalf("want 2 files (the result's entry and the verdict log), have %d", n)
	}
	rkey, vkey := cacheKeys(&spec)
	v, err := decide(&truth)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, verdictLog)); err != nil || !bytes.Equal(raw, verdictLogImage(vkey, encodeVerdictEntry(&decision{v: v}))) {
		t.Fatalf("the verdict log is not the trial's one record (err %v):\n% x", err, raw)
	}

	// Flip a byte of the result's entry: the next cache must recompute the
	// identical result.
	entry := entryFile(t, dir, rkey)
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Config{Cache: repaired}).Sim(spec); !reflect.DeepEqual(got, truth) {
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
	if st := coldCache.Stats(); st.Misses == 0 || coldCache.Decided() != st.Misses {
		t.Errorf("cold cache ran no simulations, or did not decide each once: %+v, decided %d", st, coldCache.Decided())
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

// TestLocalizeDecidesOnce: a verdict memoized in the cache is the one a
// cache-less Config decides afresh — on the deciding call and on the
// repeat, for concurrent callers, and from a fresh disk cache, which reads
// it back from the verdict's record instead of deciding.
func TestLocalizeDecidesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	localize := func(t *testing.T, cfg Config, spec SimSpec) wehey.Verdict {
		t.Helper()
		v, err := cfg.Localize(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, app := range []string{TCPBulkApp, "zoom"} {
		for _, p := range []struct {
			name      string
			placement LimiterPlacement
		}{{"common", LimiterCommon}, {"noncommon", LimiterNonCommon}} {
			spec := SimSpec{App: app, Placement: p.placement, Seed: 5}
			t.Run(app+"/"+p.name, func(t *testing.T) {
				fresh := localize(t, Config{}, spec)
				cfg := Config{Cache: NewSimCache()}
				first := localize(t, cfg, spec)
				if st := cfg.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
					t.Fatalf("first Localize: stats %+v, want one miss", st)
				}
				second := localize(t, cfg, spec)
				if st := cfg.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
					t.Fatalf("second Localize: stats %+v, want one miss and one hit", st)
				}
				if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(second, fresh) {
					t.Fatalf("cached verdicts differ from the fresh one:\nfresh  %v\nfirst  %v\nsecond %v", fresh, first, second)
				}
				if second.Detail.LossTrend != first.Detail.LossTrend {
					t.Error("the repeat decided again instead of reusing the entry's verdict")
				}
			})
		}
	}

	spec := SimSpec{App: TCPBulkApp, Seed: 6}
	fresh := localize(t, Config{}, spec)

	// Eight concurrent callers: one simulation, one decision, one verdict.
	cfg := Config{Cache: NewSimCache(), Workers: 8}
	type decided struct {
		v   wehey.Verdict
		err error
	}
	vs := ForEach(8, cfg.Workers, func(int) decided {
		v, err := cfg.Localize(spec)
		return decided{v, err}
	})
	if st := cfg.Cache.Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Errorf("8 concurrent callers: stats %+v, want one miss and seven hits", st)
	}
	for i, d := range vs {
		if d.err != nil || !reflect.DeepEqual(d.v, fresh) || d.v.Detail.LossTrend != vs[0].v.Detail.LossTrend {
			t.Errorf("caller %d: verdict differs from the fresh one or was decided separately (err %v)", i, d.err)
		}
	}

	// A fresh disk cache over a populated directory reads the verdict back
	// from its record: bit-equal, and nothing decided again. A trial of
	// the same spec then reads the result's entry too (a second disk hit)
	// and takes the verdict already in memory (a hit).
	dir := t.TempDir()
	cold, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	localize(t, Config{Cache: cold}, spec)
	if n := cold.Decided(); n != 1 {
		t.Errorf("cold cache decided %d verdicts, want 1", n)
	}
	warm, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v := localize(t, Config{Cache: warm}, spec); !reflect.DeepEqual(v, fresh) {
		t.Errorf("verdict over a disk hit differs from the fresh one:\nfresh %v\ngot   %v", fresh, v)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Hits != 0 || st.Misses != 0 || warm.Decided() != 0 {
		t.Errorf("warm stats %+v, decided %d: want one disk hit, nothing decided", st, warm.Decided())
	}
	tr := Config{Cache: warm}.trial(spec)
	if v, err := tr.verdict(); err != nil || !reflect.DeepEqual(v, fresh) || !reflect.DeepEqual(tr.res, Config{}.Sim(spec)) {
		t.Errorf("trial over two disk entries differs from a fresh one (err %v)", err)
	}
	if st := warm.Stats(); st.DiskHits != 2 || st.Hits != 1 || st.Misses != 0 || warm.Decided() != 0 {
		t.Errorf("warm stats after the trial %+v, decided %d: want two disk hits and one hit, nothing decided", st, warm.Decided())
	}
}

// TestVerdictEntryStandsAlone: a rerun's Localize reads the verdict log
// and nothing else, so it answers with the result's entry gone; a damaged
// or undecodable verdict record is corrupt and decided again from the
// result's entry, never simulated; and a missing log (what a directory
// filled before the log, or a verdictStamp bump, leaves) has each verdict
// decided again once and stored for the next process. Each repair leaves
// the log holding exactly the records it should.
func TestVerdictEntryStandsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	spec := shortSpec(43)
	fresh, err := Config{}.Localize(spec)
	if err != nil {
		t.Fatal(err)
	}
	rkey, vkey := cacheKeys(&spec)
	value := encodeVerdictEntry(&decision{v: fresh})
	populate := func(t *testing.T) (dir, log string) {
		t.Helper()
		dir = t.TempDir()
		cold, err := NewDiskSimCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Config{Cache: cold}).Localize(spec); err != nil {
			t.Fatal(err)
		}
		return dir, filepath.Join(dir, verdictLog)
	}
	// rerun opens a fresh cache over dir, localizes spec and checks the
	// verdict, the counters and what the log then holds.
	rerun := func(t *testing.T, dir string, want simcache.Stats, decided int64, log []byte) simcache.Stats {
		t.Helper()
		sc, err := NewDiskSimCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Config{Cache: sc}.Localize(spec)
		if err != nil || !reflect.DeepEqual(v, fresh) {
			t.Fatalf("verdict differs from the fresh one (err %v):\nfresh %v\ngot   %v", err, fresh, v)
		}
		st := sc.Stats()
		if st.Hits != want.Hits || st.DiskHits != want.DiskHits || st.Misses != want.Misses || st.Corrupt != want.Corrupt || sc.Decided() != decided {
			t.Fatalf("stats %+v, decided %d: want %+v, decided %d", st, sc.Decided(), want, decided)
		}
		if raw, err := os.ReadFile(filepath.Join(dir, verdictLog)); err != nil || !bytes.Equal(raw, log) {
			t.Fatalf("the verdict log afterwards (err %v):\n% x\nwant\n% x", err, raw, log)
		}
		return st
	}
	one := verdictLogImage(vkey, value)

	t.Run("result entry gone", func(t *testing.T) {
		dir, _ := populate(t)
		if err := os.Remove(entryFile(t, dir, rkey)); err != nil {
			t.Fatal(err)
		}
		if st := rerun(t, dir, simcache.Stats{DiskHits: 1}, 0, one); st.BytesRead != int64(len(value)) {
			t.Errorf("a verdict read %d bytes, want the record's value, %d", st.BytesRead, len(value))
		}
	})
	t.Run("verdict entry flipped", func(t *testing.T) {
		dir, log := populate(t)
		raw, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x01
		if err := os.WriteFile(log, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rerun(t, dir, simcache.Stats{DiskHits: 1, Corrupt: 1}, 1, one) // the log was cut to its magic, then appended to
		rerun(t, dir, simcache.Stats{DiskHits: 1}, 0, one)
	})
	t.Run("verdict entry under another stamp", func(t *testing.T) {
		dir, log := populate(t)
		foreign := appendVerdictEntry(nil, foreignStamp, &fresh)
		if err := os.WriteFile(log, verdictLogImage(vkey, foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		both := verdictLogImage(vkey, foreign, value)
		rerun(t, dir, simcache.Stats{DiskHits: 1, Corrupt: 1}, 1, both)
		rerun(t, dir, simcache.Stats{DiskHits: 1}, 0, both) // the last record of a key wins
	})
	t.Run("verdict entry gone", func(t *testing.T) {
		dir, log := populate(t)
		if err := os.Remove(log); err != nil {
			t.Fatal(err)
		}
		rerun(t, dir, simcache.Stats{DiskHits: 1}, 1, one)
		rerun(t, dir, simcache.Stats{DiskHits: 1}, 0, one)
	})
}

// TestConcurrentCallersShareOneTrial: Sim, Localize and a trial's verdict
// racing on one spec — a Localize may lead the verdict's flight while a
// Sim leads the simulation it waits for — simulate once, decide once and
// agree, cold in memory, cold on disk, and warm off disk (no decision).
// Run it under -race.
func TestConcurrentCallersShareOneTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	spec := shortSpec(44)
	fresh, err := Config{}.Localize(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name            string
		open            func() (*SimCache, error)
		misses, decided int64
	}{
		{"memory", func() (*SimCache, error) { return NewSimCache(), nil }, 1, 1},
		{"disk cold", func() (*SimCache, error) { return NewDiskSimCache(dir) }, 1, 1},
		{"disk warm", func() (*SimCache, error) { return NewDiskSimCache(dir) }, 0, 0},
	} {
		sc, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Cache: sc, Workers: 12}
		errs := ForEach(12, cfg.Workers, func(i int) error {
			var v wehey.Verdict
			var err error
			switch i % 3 {
			case 0:
				cfg.Sim(spec)
				return nil
			case 1:
				v, err = cfg.Localize(spec)
			default:
				v, err = cfg.trial(spec).verdict()
			}
			if err == nil && !reflect.DeepEqual(v, fresh) {
				err = errors.New("verdict differs from a fresh one")
			}
			return err
		})
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: caller %d: %v", tc.name, i, err)
			}
		}
		if st := sc.Stats(); st.Misses != tc.misses || sc.Decided() != tc.decided || st.Corrupt != 0 {
			t.Errorf("%s: stats %+v, decided %d: want %d misses and %d decided", tc.name, st, sc.Decided(), tc.misses, tc.decided)
		}
	}
}
