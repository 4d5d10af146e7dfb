package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

var update = flag.Bool("update", false, "rewrite testdata/verdict.golden (refused unless verdictStamp changed)")

// foreignStamp is a verdict stamp this build does not write: what an
// entry from a build with other detectors carries.
const foreignStamp = "wehey/verdict/v0"

const verdictGoldenPath = "testdata/verdict.golden"

// verdictCase is one loss-log pair of the verdict corpus.
type verdictCase struct {
	name string
	res  SimResult
}

// verdictCorpus is decide's input for TestVerdictStampGuards: loss logs
// from measure.SynthPair, no simulator, so it costs milliseconds and
// moves only when the detectors do. It spans a shared, a half-shared and
// an independent loss process at equal and unequal RTTs, a pair too
// short for the top of the interval sweep, and a lossless path (every
// series constant, so ρ is NaN).
func verdictCorpus() []verdictCase {
	var out []verdictCase
	add := func(name string, m1, m2 *measure.Path) {
		out = append(out, verdictCase{name, SimResult{
			M1: *m1, M2: *m2, LossRate: [2]float64{m1.LossRate(), m2.LossRate()},
		}})
	}
	for _, w := range []float64{0, 0.5, 1} {
		for _, rtt := range [][2]time.Duration{{35 * time.Millisecond, 35 * time.Millisecond}, {20 * time.Millisecond, 80 * time.Millisecond}} {
			for _, seed := range []int64{1, 2} {
				m1, m2 := measure.SynthPair(rand.New(rand.NewSource(seed)), measure.SynthSpec{
					CommonWeight: w, RTT1: rtt[0], RTT2: rtt[1],
				})
				add(fmt.Sprintf("common=%v rtt=%v/%v seed=%d", w, rtt[0], rtt[1], seed), m1, m2)
			}
		}
	}
	// 12 s at 35 ms: from σ = 40 RTT up the sizes retain 8 intervals or
	// fewer, so the vote's admissibility threshold decides them.
	m1, m2 := measure.SynthPair(rand.New(rand.NewSource(3)), measure.SynthSpec{CommonWeight: 1, Duration: 12 * time.Second})
	add("short 12s", m1, m2)
	m1, m2 = measure.SynthPair(rand.New(rand.NewSource(4)), measure.SynthSpec{CommonWeight: 1})
	m2.Loss = nil
	add("lossless p2 (NaN rho)", m1, m2)
	return out
}

// decided is decide's verdict on c's logs.
func decided(tb testing.TB, c verdictCase) wehey.Verdict {
	tb.Helper()
	v, err := decide(&c.res)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return v
}

// verdictGolden renders the corpus's verdict blobs as the golden file
// holds them: the stamp, then item 0's blob in full hex and every other
// item's SHA-256.
func verdictGolden(t *testing.T) string {
	var b strings.Builder
	fmt.Fprintln(&b, verdictStamp)
	for i, c := range verdictCorpus() {
		v := decided(t, c)
		blob := appendVerdict(nil, verdictStamp, &v)
		val := hex.EncodeToString(blob)
		if i > 0 {
			sum := sha256.Sum256(blob)
			val = "sha256:" + hex.EncodeToString(sum[:])
		}
		fmt.Fprintf(&b, "%d %s %s\n", i, strings.ReplaceAll(c.name, " ", "_"), val)
	}
	return b.String()
}

// TestVerdictStampGuards makes verdictStamp as hard to forget as the
// cachekey analyzer makes simCacheSchema: decide's persisted bytes over
// a fixed corpus must match testdata/verdict.golden, which names the
// stamp they were written under. A detector change that moves the bytes
// fails here until verdictStamp is bumped and the golden rewritten with
// -update; -update refuses to rewrite it under the old stamp.
func TestVerdictStampGuards(t *testing.T) {
	got := verdictGolden(t)
	raw, err := os.ReadFile(verdictGoldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	committed, _, _ := strings.Cut(want, "\n")
	if committed == verdictStamp {
		t.Fatalf("decide's verdict bytes changed under the committed stamp %s: bump verdictStamp (cache.go), then run\n"+
			"  go test ./internal/experiments -run TestVerdictStampGuards -update\n--- committed\n%s--- now\n%s", verdictStamp, want, got)
	}
	if !*update {
		t.Fatalf("%s is for %q, the code stamps %q: run go test ./internal/experiments -run TestVerdictStampGuards -update",
			verdictGoldenPath, committed, verdictStamp)
	}
	if err := os.WriteFile(verdictGoldenPath, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s under %s", verdictGoldenPath, verdictStamp)
}

// TestVerdictBlobUnderStamp: over the corpus, a verdict entry decodes to
// exactly what decide returned (bit patterns for ρ and p, NaN included),
// every strict prefix is rejected, and so is one under another stamp; an
// erred verdict is never encoded; and a bad entry under this stamp is
// rejected.
func TestVerdictBlobUnderStamp(t *testing.T) {
	for _, c := range verdictCorpus() {
		v := decided(t, c)
		entry := encodeVerdictEntry(&decision{v: v})
		got, err := decodeVerdictEntry(entry)
		if err != nil {
			t.Fatalf("%s: persisted verdict not read back: %v", c.name, err)
		}
		if !sameVerdict(got, v) {
			t.Errorf("%s: decoded verdict differs from the decided one:\n got %+v\nwant %+v", c.name, got, v)
		}
		for cut := 0; cut < len(entry); cut++ {
			if _, err := decodeVerdictEntry(entry[:cut]); err == nil {
				t.Fatalf("%s: cut=%d of %d: truncated entry accepted", c.name, cut, len(entry))
			}
		}
		if _, err := decodeVerdictEntry(appendVerdictEntry(nil, foreignStamp, &v)); err == nil {
			t.Errorf("%s: a verdict under another stamp was accepted", c.name)
		}
		if e := encodeVerdictEntry(&decision{v: v, err: errors.New("detector failed")}); e != nil {
			t.Errorf("%s: an erred verdict encodes to %d bytes, want none", c.name, len(e))
		}
	}

	// Each corruption keeps the entry under this stamp; only its content
	// is wrong.
	v := decided(t, verdictCorpus()[0])
	entry := appendVerdictEntry(nil, verdictStamp, &v)
	evidenceAt := len(measure.AppendString(nil, verdictStamp))
	for name, bad := range map[string][]byte{
		"evidence out of range": func() []byte {
			b := append([]byte(nil), entry...)
			b[evidenceAt] = 7
			return b
		}(),
		"trailing byte":   append(append([]byte(nil), entry...), 0),
		"stamp only":      measure.AppendString(nil, verdictStamp),
		"invalid bool":    append(measure.AppendInt64(measure.AppendString(nil, verdictStamp), 0), 2),
		"rows over-claim": measure.AppendUint64(append([]byte(nil), entry[:evidenceAt+8+1+1+8+8]...), math.MaxUint64),
	} {
		if _, err := decodeVerdictEntry(bad); err == nil {
			t.Errorf("%s: a bad verdict under this stamp was accepted", name)
		}
	}
}

// FuzzVerdictEntry fuzzes the verdict entry's decoder: arbitrary bytes
// never panic it, an accepted entry re-encodes to exactly its bytes, and
// the same verdict under another stamp is rejected.
func FuzzVerdictEntry(f *testing.F) {
	f.Add([]byte{})
	corpus := verdictCorpus()
	for _, c := range []verdictCase{corpus[0], corpus[len(corpus)-1]} { // the last has NaN ρ
		v := decided(f, c)
		f.Add(appendVerdictEntry(nil, verdictStamp, &v))
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		v, err := decodeVerdictEntry(x)
		if err != nil {
			return
		}
		if e := appendVerdictEntry(nil, verdictStamp, &v); !bytes.Equal(e, x) {
			t.Fatalf("accepted entry re-encodes to other bytes:\n% x\n% x", x, e)
		}
		if _, err := decodeVerdictEntry(appendVerdictEntry(nil, foreignStamp, &v)); err == nil {
			t.Fatal("a verdict under another stamp was accepted")
		}
	})
}

// sameVerdict compares two verdicts: the loss-trend detail by its
// persisted bytes (reflect.DeepEqual calls a NaN ρ unequal to itself),
// every other field by value.
func sameVerdict(a, b wehey.Verdict) bool {
	ea, eb := appendVerdictEntry(nil, verdictStamp, &a), appendVerdictEntry(nil, verdictStamp, &b)
	a.Detail.LossTrend, b.Detail.LossTrend = nil, nil
	return bytes.Equal(ea, eb) && reflect.DeepEqual(a, b)
}

// FuzzVerdictLog puts arbitrary bytes in a disk cache's verdict log and
// asks for the verdict under every key a record of it names, and one it
// names nowhere. Nothing panics; a verdict is served exactly when the last
// record of its key in the log's valid prefix decodes, and it re-encodes
// to that record's value byte for byte; every other key is decided again.
// The valid prefix is the test's own statement of the layout: the magic,
// then frames of an 8-byte length, the SHA-256 and a payload of a key and
// a value, up to the first frame that is short, fails its checksum or
// holds no key.
func FuzzVerdictLog(f *testing.F) {
	corpus := verdictCorpus()
	var values [][]byte
	for _, c := range []verdictCase{corpus[0], corpus[len(corpus)-1]} { // the last has NaN ρ
		v := decided(f, c)
		values = append(values, appendVerdictEntry(nil, verdictStamp, &v))
	}
	k0, k1 := verdictKey(simcache.KeyOf(simCacheSchema, []byte{0})), verdictKey(simcache.KeyOf(simCacheSchema, []byte{1}))
	two := append(verdictLogImage(k0, values[0]), verdictLogImage(k1, values[1])[8:]...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(verdictLogImage(k0, appendVerdictEntry(nil, foreignStamp, &wehey.Verdict{}), values[0]))
	f.Add(verdictLogImage(k0, values[1], values[0][:len(values[0])-1]))

	notServed := &decision{err: errors.New("decided again")}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, verdictLog), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		last := map[simcache.Key][]byte{}
		var keys []simcache.Key
		rest, torn := raw, len(raw) > 0
		if bytes.HasPrefix(raw, []byte("WHYSIML1")) {
			rest = raw[8:]
			for len(rest) >= 8+sha256.Size {
				n := binary.LittleEndian.Uint64(rest)
				if n > uint64(len(rest)-8-sha256.Size) || n < uint64(len(simcache.Key{})) {
					break
				}
				payload := rest[8+sha256.Size : 8+sha256.Size+int(n)]
				if sha256.Sum256(payload) != [sha256.Size]byte(rest[8:]) {
					break
				}
				k := simcache.Key(payload)
				if _, seen := last[k]; !seen {
					keys = append(keys, k)
				}
				last[k] = payload[len(k):]
				rest = rest[8+sha256.Size+int(n):]
			}
			torn = len(rest) > 0
		}
		sc, err := NewDiskSimCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		var undecodable int64
		for _, k := range append(keys, verdictKey(simcache.KeyOf(simCacheSchema, []byte("absent")))) {
			got := sc.verdicts.Get(k, func() *decision { return notServed })
			value, ok := last[k]
			if _, err := decodeVerdictEntry(value); ok && err == nil {
				if got == notServed || !bytes.Equal(encodeVerdictEntry(got), value) {
					t.Fatalf("key %s: the record's value\n% x\nwas not served as itself", k, value)
				}
				continue
			}
			if got != notServed {
				t.Fatalf("key %s: a verdict was served without a decodable record", k)
			}
			if ok {
				undecodable++
			}
		}
		corrupt := undecodable
		if torn {
			corrupt++ // the read counts a torn tail once
		}
		if st := sc.Stats(); st.Corrupt != corrupt || st.ReadErrors != 0 || st.WriteErrors != 0 {
			t.Fatalf("stats %+v: want %d undecodable records, torn tail %v", st, undecodable, torn)
		}
	})
}
