package experiments

import (
	"errors"
	"sort"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// This file routes RunSim through internal/simcache. Since PR 1 a trial's
// randomness is a pure function of SimSpec (the seed is part of the
// spec), so RunSim(spec) is deterministic in spec alone — memoizing it is
// sound. The cache key is the SHA-256 of simCacheSchema plus a canonical
// binary encoding of the *filled* spec (appendSpec), so a spec relying on
// defaults and one spelling them out share an entry. SimResult round-trips
// through the exact binary codec of internal/measure: a result served
// from disk is bit-for-bit the result a recompute would produce,
// including map-valued fields (Drops) and nil-vs-empty slice identity.

// simCacheSchema stamps every cache key. Bump it whenever anything that
// RunSim's output depends on changes meaning: a SimSpec or SimResult
// field is added/removed/reinterpreted, the wire encoding changes, or the
// simulator's behaviour at a fixed spec changes (netsim, trace
// generation, calibration constants). Old entries then simply miss.
// TestSimCacheSchemaGuards pins the struct shapes this stamp covers.
// v2: SimSpec gained BackgroundMode + BgFlowRate, SimResult gained
// Events/BgEvents/BgFlows (PR 8's hybrid fluid background).
// v3: the wire encoding changed — measure's duration slices (Path.Tx,
// Path.Loss) are delta-coded (PR 16).
const simCacheSchema = "wehey/simcache/v3"

// SimCache memoizes RunSim results. Results handed out are shared:
// callers must not mutate them (the experiment generators only read).
type SimCache struct {
	inner *simcache.Cache[SimResult]
}

// NewSimCache returns an in-process (memory-only) simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{inner: simcache.New[SimResult]()}
}

// NewDiskSimCache returns a simulation cache persisted under dir, so a
// later process skips every simulation this one ran.
func NewDiskSimCache(dir string) (*SimCache, error) {
	inner, err := simcache.NewDisk(dir, simcache.Codec[SimResult]{
		Encode: encodeResult,
		Decode: decodeResult,
	})
	if err != nil {
		return nil, err
	}
	return &SimCache{inner: inner}, nil
}

// Run returns RunSim(spec), computing it at most once per key: concurrent
// requests for the same spec single-flight onto one simulation.
func (sc *SimCache) Run(spec SimSpec) SimResult {
	spec.fill() // canonicalize before keying: defaulted == spelled out
	key := simcache.KeyOf(simCacheSchema, appendSpec(nil, &spec))
	return sc.inner.Get(key, func() SimResult { return RunSim(spec) })
}

// Stats snapshots the cache counters.
func (sc *SimCache) Stats() simcache.Stats { return sc.inner.Stats() }

// Sim runs one simulation through the configured cache, or directly when
// none is set. Generators call this (or Grid) instead of RunSim so a
// process-wide cache dedups identical trials across experiments.
func (c Config) Sim(spec SimSpec) SimResult {
	if c.BackgroundMode != "" && spec.BackgroundMode == "" {
		// The config-level mode is a default for specs that don't pin one;
		// experiments explicitly about the mode (ablation-scale) set it per
		// spec and win.
		spec.BackgroundMode = c.BackgroundMode
	}
	if c.Cache != nil {
		return c.Cache.Run(spec)
	}
	return RunSim(spec)
}

// Grid is the cache-aware RunGrid: every spec through Sim on the
// configured worker pool, results in submission order.
func (c Config) Grid(specs []SimSpec) []SimResult {
	return ForEach(len(specs), c.workers(), func(i int) SimResult {
		return c.Sim(specs[i])
	})
}

// appendSpec appends the canonical binary encoding of s — every field, in
// declaration order. TestSimCacheSchemaGuards fails if SimSpec grows a
// field without this encoder (and simCacheSchema) being updated.
func appendSpec(b []byte, s *SimSpec) []byte {
	b = measure.AppendString(b, s.App)
	b = measure.AppendFloat64(b, s.InputFactor)
	b = measure.AppendFloat64(b, s.QueueFactor)
	b = measure.AppendFloat64(b, s.BgShare)
	b = measure.AppendFloat64(b, s.BgAggregate)
	b = measure.AppendInt64(b, int64(s.RTT1))
	b = measure.AppendInt64(b, int64(s.RTT2))
	b = measure.AppendInt64(b, int64(s.Placement))
	b = measure.AppendFloat64(b, s.CongestionFactor)
	b = measure.AppendInt64(b, int64(s.Duration))
	b = appendBool(b, s.Unmodified)
	b = appendBool(b, s.BBR)
	b = measure.AppendString(b, s.BackgroundMode)
	b = measure.AppendFloat64(b, s.BgFlowRate)
	return measure.AppendInt64(b, s.Seed)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, measure.ErrTruncated
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	}
	return false, nil, errors.New("experiments: invalid bool byte")
}

// encodeResult is the exact wire form of a SimResult, field by field in
// declaration order; the Drops map travels as sorted key/value pairs so
// the encoding is deterministic.
func encodeResult(r SimResult) []byte {
	b := measure.AppendPathBinary(nil, &r.M1)
	b = measure.AppendPathBinary(b, &r.M2)
	for i := range r.RetransRate {
		b = measure.AppendFloat64(b, r.RetransRate[i])
	}
	for i := range r.QueueDelay {
		b = measure.AppendInt64(b, int64(r.QueueDelay[i]))
	}
	for i := range r.LossRate {
		b = measure.AppendFloat64(b, r.LossRate[i])
	}
	for i := range r.Tput {
		b = measure.AppendThroughputBinary(b, r.Tput[i])
	}
	if r.Drops == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		keys := make([]string, 0, len(r.Drops))
		for k := range r.Drops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = measure.AppendUint64(b, uint64(len(keys)))
		for _, k := range keys {
			b = measure.AppendString(b, k)
			b = measure.AppendInt64(b, int64(r.Drops[k]))
		}
	}
	b = measure.AppendInt64(b, r.Events)
	b = measure.AppendInt64(b, r.BgEvents)
	return measure.AppendInt64(b, r.BgFlows)
}

// decodeResult inverts encodeResult. Any framing problem — truncation,
// trailing garbage, invalid tags — is an error (the cache treats it as a
// miss and recomputes); it can never yield a wrong result silently.
func decodeResult(b []byte) (SimResult, error) {
	var r SimResult
	var err error
	fail := func(err error) (SimResult, error) { return SimResult{}, err }
	if r.M1, b, err = measure.DecodePathBinary(b); err != nil {
		return fail(err)
	}
	if r.M2, b, err = measure.DecodePathBinary(b); err != nil {
		return fail(err)
	}
	for i := range r.RetransRate {
		if r.RetransRate[i], b, err = measure.DecodeFloat64(b); err != nil {
			return fail(err)
		}
	}
	for i := range r.QueueDelay {
		var v int64
		if v, b, err = measure.DecodeInt64(b); err != nil {
			return fail(err)
		}
		r.QueueDelay[i] = time.Duration(v)
	}
	for i := range r.LossRate {
		if r.LossRate[i], b, err = measure.DecodeFloat64(b); err != nil {
			return fail(err)
		}
	}
	for i := range r.Tput {
		if r.Tput[i], b, err = measure.DecodeThroughputBinary(b); err != nil {
			return fail(err)
		}
	}
	present, b, err := decodeBool(b)
	if err != nil {
		return fail(err)
	}
	if present {
		var n uint64
		if n, b, err = measure.DecodeUint64(b); err != nil {
			return fail(err)
		}
		if n > uint64(len(b)/16) { // ≥16 bytes per entry: 8-byte key length + 8-byte value
			return fail(measure.ErrTruncated)
		}
		r.Drops = make(map[string]int, n)
		for i := uint64(0); i < n; i++ {
			var k string
			var v int64
			if k, b, err = measure.DecodeString(b); err != nil {
				return fail(err)
			}
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return fail(err)
			}
			r.Drops[k] = int(v)
		}
	}
	if r.Events, b, err = measure.DecodeInt64(b); err != nil {
		return fail(err)
	}
	if r.BgEvents, b, err = measure.DecodeInt64(b); err != nil {
		return fail(err)
	}
	if r.BgFlows, b, err = measure.DecodeInt64(b); err != nil {
		return fail(err)
	}
	if len(b) != 0 {
		return fail(errors.New("experiments: trailing bytes after SimResult"))
	}
	return r, nil
}
