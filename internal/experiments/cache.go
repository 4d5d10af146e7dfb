package experiments

import (
	"sort"
	"sync"

	wehey "github.com/nal-epfl/wehey"
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

// SimCache memoizes trials: each entry is one SimSpec's RunSim result
// plus the verdict Config.Localize reaches on it, decided at most once
// per entry. Results and verdicts handed out are shared: callers must
// not mutate them (the experiment generators and the service only read;
// a Verdict's Detail holds pointers into the entry).
//
// The verdict is as pure as the result: decide reads nothing but the
// result, which is a function of the filled SimSpec (Config.BackgroundMode
// is folded into the spec before keying, as Sim folds it). A Config field
// that ever changes the decision must enter the key too. Only the result
// goes to disk: a persisted verdict would need a stamp for the detector's
// behaviour as well, so a disk hit decides again, once per process.
type SimCache struct {
	inner *simcache.Cache[*trial]
}

// trial is one cache entry: a simulation's result and, once a caller has
// asked for it, the verdict decided on it. mu serializes deciders, so
// concurrent callers get one decision; a panic in decide unlocks mu with
// decided still false, and the next caller decides again.
type trial struct {
	res SimResult

	mu      sync.Mutex
	decided bool
	v       wehey.Verdict
	err     error
}

// verdict returns decide(&t.res), computing it on the first call only.
func (t *trial) verdict() (wehey.Verdict, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.decided {
		t.v, t.err = decide(&t.res)
		t.decided = true
	}
	return t.v, t.err
}

// NewSimCache returns an in-process (memory-only) simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{inner: simcache.New[*trial]()}
}

// NewDiskSimCache returns a simulation cache persisted under dir, so a
// later process skips every simulation this one ran.
func NewDiskSimCache(dir string) (*SimCache, error) {
	inner, err := simcache.NewDisk(dir, simcache.Codec[*trial]{
		Encode: func(t *trial) []byte { return encodeResult(t.res) },
		Decode: func(b []byte) (*trial, error) {
			res, err := decodeResult(b)
			if err != nil {
				return nil, err
			}
			return &trial{res: res}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &SimCache{inner: inner}, nil
}

// trial returns spec's entry, simulating it on a miss: concurrent requests
// for the same spec single-flight onto one simulation.
func (sc *SimCache) trial(spec SimSpec) *trial {
	spec.fill() // canonicalize before keying: defaulted == spelled out
	key := simcache.KeyOf(simCacheSchema, appendSpec(nil, &spec))
	return sc.inner.Get(key, func() *trial { return &trial{res: RunSim(spec)} })
}

// Stats snapshots the cache counters.
func (sc *SimCache) Stats() simcache.Stats { return sc.inner.Stats() }

// trial is spec's trial through the configured cache, or a fresh one when
// none is set. Sim, Localize and the generators that read both a result
// and its verdict start here, so each call counts one cache request.
func (c Config) trial(spec SimSpec) *trial {
	if c.BackgroundMode != "" && spec.BackgroundMode == "" {
		// The config-level mode is a default for specs that don't pin one;
		// experiments explicitly about the mode (ablation-scale) set it per
		// spec and win.
		spec.BackgroundMode = c.BackgroundMode
	}
	if c.Cache != nil {
		return c.Cache.trial(spec)
	}
	return &trial{res: RunSim(spec)}
}

// Sim runs one simulation through the configured cache, or directly when
// none is set. Generators call this (or Grid) instead of RunSim so a
// process-wide cache dedups identical trials across experiments.
func (c Config) Sim(spec SimSpec) SimResult { return c.trial(spec).res }

// Grid runs every spec through Sim on the configured worker pool, results
// in submission order.
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
	b = measure.AppendBool(b, s.Unmodified)
	b = measure.AppendBool(b, s.BBR)
	b = measure.AppendString(b, s.BackgroundMode)
	b = measure.AppendFloat64(b, s.BgFlowRate)
	return measure.AppendInt64(b, s.Seed)
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
	b = measure.AppendBool(b, r.Drops != nil)
	if r.Drops != nil {
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
	r := measure.NewReader(b)
	res := SimResult{
		M1: r.Path(),
		M2: r.Path(),
	}
	for i := range res.RetransRate {
		res.RetransRate[i] = r.Float64()
	}
	for i := range res.QueueDelay {
		res.QueueDelay[i] = r.Duration()
	}
	for i := range res.LossRate {
		res.LossRate[i] = r.Float64()
	}
	for i := range res.Tput {
		res.Tput[i] = r.Throughput()
	}
	if r.Bool() {
		n := r.Count(16) // ≥16 bytes per entry: 8-byte key length + 8-byte value
		res.Drops = make(map[string]int, n)
		for range n {
			k := r.Str()
			res.Drops[k] = int(r.Int64())
		}
	}
	res.Events = r.Int64()
	res.BgEvents = r.Int64()
	res.BgFlows = r.Int64()
	if err := r.Done(); err != nil {
		return SimResult{}, err
	}
	return res, nil
}
