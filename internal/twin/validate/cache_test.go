package validate

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/simcache"
)

// hexBytes decodes the concatenation of hex strings.
func hexBytes(parts ...string) []byte {
	b, err := hex.AppendDecode(nil, []byte(strings.Join(parts, "")))
	if err != nil {
		panic(err)
	}
	return b
}

// TestCacheValueGoldens pins the two measurement layouts, field by
// field: each value encodes to its golden entry and the entry decodes to
// it, while every strict prefix and one trailing byte are rejected. A
// change here changes the meaning of every entry on disk and needs the
// kind's cache stamp bumped with it.
func TestCacheValueGoldens(t *testing.T) {
	checkGolden(t, "tbf", tbfCodec(), TBFMeasurement{
		LossRate:       0.375,
		MeanQueueDelay: 12 * time.Millisecond,
		Drops:          true,
		FirstDrop:      250 * time.Millisecond,
	}, hexBytes(
		"000000000000d83f", // LossRate 0.375
		"001bb70000000000", // MeanQueueDelay 12ms
		"0100000000000000", // Drops true, as an int64
		"80b2e60e00000000", // FirstDrop 250ms
	))
	checkGolden(t, "hybrid", hybridCodec(), HybridMeasurement{
		BgLossRate: 0.0625,
		FgLossRate: 0.125,
		FgP50:      4 * time.Millisecond,
		FgP95:      9 * time.Millisecond,
		Events:     123456,
	}, hexBytes(
		"000000000000b03f", // BgLossRate 0.0625
		"000000000000c03f", // FgLossRate 0.125
		"00093d0000000000", // FgP50 4ms
		"4054890000000000", // FgP95 9ms
		"40e2010000000000", // Events 123456
	))
}

func checkGolden[V comparable](t *testing.T, name string, c simcache.Codec[V], v V, entry []byte) {
	t.Helper()
	if got := c.Encode(v); !bytes.Equal(got, entry) {
		t.Errorf("%s: encoded % x, want % x", name, got, entry)
	}
	if got, err := c.Decode(entry); err != nil || got != v {
		t.Errorf("%s: decoded %+v (err %v), want %+v", name, got, err, v)
	}
	for cut := 0; cut < len(entry); cut++ {
		if _, err := c.Decode(entry[:cut]); err == nil {
			t.Errorf("%s: cut=%d of %d decoded without error", name, cut, len(entry))
		}
	}
	if _, err := c.Decode(append(bytes.Clone(entry), 0)); err == nil {
		t.Errorf("%s: trailing byte accepted", name)
	}
}
