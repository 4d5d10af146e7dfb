package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
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

// decidedTrial is a trial over c's logs with its verdict decided.
func decidedTrial(tb testing.TB, c verdictCase) *trial {
	tb.Helper()
	tr := &trial{res: c.res}
	if _, err := tr.verdict(); err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return tr
}

// verdictGolden renders the corpus's verdict blobs as the golden file
// holds them: the stamp, then item 0's blob in full hex and every other
// item's SHA-256.
func verdictGolden(t *testing.T) string {
	var b strings.Builder
	fmt.Fprintln(&b, verdictStamp)
	for i, c := range verdictCorpus() {
		tr := decidedTrial(t, c)
		blob := appendVerdict(nil, verdictStamp, &tr.v)
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

// TestVerdictBlobUnderStamp: over the corpus, a persisted verdict decodes
// to exactly what decide returned (bit patterns for ρ and p, NaN
// included), one under another stamp is skipped, and a bad blob under
// this stamp rejects the entry.
func TestVerdictBlobUnderStamp(t *testing.T) {
	for _, c := range verdictCorpus() {
		tr := decidedTrial(t, c)
		entry := encodeTrial(tr, verdictStamp)
		got, err := decodeTrial(entry, verdictStamp)
		if err != nil || !got.decided {
			t.Fatalf("%s: persisted verdict not read back (err %v)", c.name, err)
		}
		if !sameVerdict(got, tr) {
			t.Errorf("%s: decoded verdict differs from the decided one:\n got %+v\nwant %+v", c.name, got.v, tr.v)
		}
		skipped, err := decodeTrial(encodeTrial(tr, foreignStamp), verdictStamp)
		if err != nil || skipped.decided || !reflect.DeepEqual(skipped.res, tr.res) {
			t.Errorf("%s: a verdict under another stamp was not skipped (err %v)", c.name, err)
		}
	}

	// Each corruption keeps the blob under this stamp and its outer
	// framing intact; only its content is wrong.
	tr := decidedTrial(t, verdictCorpus()[0])
	blob := appendVerdict(nil, verdictStamp, &tr.v)
	evidenceAt := len(measure.AppendString(nil, verdictStamp))
	for name, bad := range map[string][]byte{
		"evidence out of range": func() []byte {
			b := append([]byte(nil), blob...)
			b[evidenceAt] = 7
			return b
		}(),
		"trailing byte":   append(append([]byte(nil), blob...), 0),
		"row cut short":   blob[:len(blob)-1],
		"stamp only":      measure.AppendString(nil, verdictStamp),
		"invalid bool":    append(measure.AppendInt64(measure.AppendString(nil, verdictStamp), 0), 2),
		"rows over-claim": measure.AppendUint64(append([]byte(nil), blob[:evidenceAt+8+1+1+8+8]...), math.MaxUint64),
	} {
		entry := measure.AppendString(measure.AppendBool(encodeResult(tr.res), true), string(bad))
		if _, err := decodeTrial(entry, verdictStamp); err == nil {
			t.Errorf("%s: a bad verdict under this stamp was accepted", name)
		}
	}
}

// sameVerdict compares two trials' verdicts: the loss-trend detail by
// its persisted bytes (reflect.DeepEqual calls a NaN ρ unequal to
// itself), every other field by value.
func sameVerdict(a, b *trial) bool {
	av, bv := a.v, b.v
	av.Detail.LossTrend, bv.Detail.LossTrend = nil, nil
	return bytes.Equal(encodeTrial(a, verdictStamp), encodeTrial(b, verdictStamp)) && reflect.DeepEqual(av, bv)
}
