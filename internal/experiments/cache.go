package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
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
// The verdict decided on the result travels with it under its own stamp
// (verdictStamp), so a disk hit is a decided trial too.

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
// v4: the entry carries the trial's verdict after the result (encodeTrial).
const simCacheSchema = "wehey/simcache/v4"

// verdictStamp heads the verdict an entry persists. Bump it whenever
// decide's output on a fixed SimResult changes: internal/core,
// internal/stats, measure.LossSweep, the Localizer{} defaults, or the
// verdict blob's layout (appendVerdict). An entry whose verdict carries
// another stamp keeps its result and decides again, once per process; the
// simulation is not rerun. TestVerdictStampGuards fails when the bytes
// move and this stamp does not.
const verdictStamp = "wehey/verdict/v1"

// SimCache memoizes trials: each entry is one SimSpec's RunSim result
// plus the verdict Config.Localize reaches on it, decided once, when the
// entry is computed. Results and verdicts handed out are shared: callers
// must not mutate them (the experiment generators and the service only
// read; a Verdict's Detail holds pointers into the entry).
//
// The verdict is as pure as the result: decide reads nothing but the
// result, which is a function of the filled SimSpec (Config.BackgroundMode
// is folded into the spec before keying, as Sim folds it). A Config field
// that ever changes the decision must enter the key too. A disk entry
// stores the verdict under verdictStamp, so a disk hit decides nothing
// unless the detectors changed since the entry was written.
type SimCache struct {
	inner   *simcache.Cache[*trial]
	decided atomic.Int64 // verdicts decided: one per miss, plus lazy ones
}

// trial is one cache entry: a simulation's result and, once decided, the
// verdict decide reaches on it. mu serializes deciders, so concurrent
// callers get one decision; a panic in decide unlocks mu with decided
// still false, and the next caller decides again.
type trial struct {
	res     SimResult
	counter *atomic.Int64 // counts each decision; nil outside a cache

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
		if t.counter != nil {
			t.counter.Add(1)
		}
	}
	return t.v, t.err
}

// NewSimCache returns an in-process (memory-only) simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{inner: simcache.New[*trial]()}
}

// NewDiskSimCache returns a simulation cache persisted under dir, so a
// later process skips every simulation, and every decision, this one ran.
func NewDiskSimCache(dir string) (*SimCache, error) {
	return newDiskSimCache(dir, verdictStamp)
}

// newDiskSimCache is NewDiskSimCache writing and accepting verdicts under
// stamp; a test opens one with another stamp to write what an older
// binary would have.
func newDiskSimCache(dir, stamp string) (*SimCache, error) {
	sc := &SimCache{}
	inner, err := simcache.NewDisk(dir, simcache.Codec[*trial]{
		Encode: func(t *trial) []byte { return encodeTrial(t, stamp) },
		Decode: func(b []byte) (*trial, error) {
			t, err := decodeTrial(b, stamp)
			if t != nil {
				t.counter = &sc.decided
			}
			return t, err
		},
	})
	if err != nil {
		return nil, err
	}
	sc.inner = inner
	return sc, nil
}

// trial returns spec's entry, simulating and deciding it on a miss:
// concurrent requests for the same spec single-flight onto one simulation.
// Deciding before the entry is published puts the verdict on disk with
// the result; a panic in either unpublishes the flight.
func (sc *SimCache) trial(spec SimSpec) *trial {
	spec.fill() // canonicalize before keying: defaulted == spelled out
	key := simcache.KeyOf(simCacheSchema, appendSpec(nil, &spec))
	return sc.inner.Get(key, func() *trial {
		t := &trial{res: RunSim(spec), counter: &sc.decided}
		t.verdict()
		return t
	})
}

// Stats snapshots the cache counters.
func (sc *SimCache) Stats() simcache.Stats { return sc.inner.Stats() }

// Decided counts the verdicts this cache has decided: one per miss, and
// one per disk hit whose entry held no verdict under the current stamp.
func (sc *SimCache) Decided() int64 { return sc.decided.Load() }

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

// encodeTrial is a trial's cache value: encodeResult, then whether a
// verdict follows, then the verdict (appendVerdict under stamp) as one
// length-prefixed blob, so a reader expecting another stamp skips it
// whole. Only a verdict decide reached without error, on loss trend alone
// (a sim trial has no T_diff), is persisted; otherwise the reader decides.
func encodeTrial(t *trial, stamp string) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := encodeResult(t.res)
	persist := t.decided && t.err == nil && t.v.Detail.Throughput == nil
	b = measure.AppendBool(b, persist)
	if !persist {
		return b
	}
	return measure.AppendString(b, string(appendVerdict(nil, stamp, &t.v)))
}

// decodeTrial inverts encodeTrial. Any framing problem — truncation,
// trailing garbage, invalid tags, a bad verdict under stamp — is an error
// (the cache treats it as a miss and recomputes); it can never yield a
// wrong result or verdict silently. A verdict under another stamp is
// skipped: the trial comes back undecided and decides on first use.
func decodeTrial(b []byte, stamp string) (*trial, error) {
	r := measure.NewReader(b)
	t := &trial{res: readResult(r)}
	present := r.Bool()
	var blob string
	if present {
		blob = r.Str()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if !present {
		return t, nil
	}
	br := measure.NewReader([]byte(blob))
	if br.Str() != stamp {
		return t, nil
	}
	v, err := decodeVerdict(br, &t.res)
	if err != nil {
		return nil, fmt.Errorf("experiments: verdict %s: %w", stamp, err)
	}
	t.v, t.decided = v, true
	return t, nil
}

// appendVerdict appends what decide computes on a sim trial, headed by
// stamp: the evidence, then the loss-trend detail — presence, the vote,
// and one row per interval size σ with ρ and p by bit pattern. The rest
// of the Verdict follows from these and the result (decodeVerdict).
func appendVerdict(b []byte, stamp string, v *wehey.Verdict) []byte {
	b = measure.AppendString(b, stamp)
	b = measure.AppendInt64(b, int64(v.Evidence))
	lt := v.Detail.LossTrend
	b = measure.AppendBool(b, lt != nil)
	if lt == nil {
		return b
	}
	b = measure.AppendBool(b, lt.CommonBottleneck)
	b = measure.AppendInt64(b, int64(lt.Correlations))
	b = measure.AppendInt64(b, int64(lt.Sizes))
	b = measure.AppendUint64(b, uint64(len(lt.PerSize)))
	for _, s := range lt.PerSize {
		b = measure.AppendInt64(b, int64(s.Sigma))
		b = measure.AppendInt64(b, int64(s.Intervals))
		b = measure.AppendBool(b, s.Admissible)
		b = measure.AppendFloat64(b, s.Rho)
		b = measure.AppendFloat64(b, s.P)
		b = measure.AppendBool(b, s.Correlated)
	}
	return b
}

// verdictRowSize is the size of one appendVerdict row.
const verdictRowSize = 8 + 8 + 1 + 8 + 8 + 1

// decodeVerdict reads an appendVerdict blob after its stamp and rebuilds
// the Verdict decide returned on res: WeHe's detection and the
// confirmation hold by construction, the headline follows the evidence,
// and the loss rates are the result's.
func decodeVerdict(r *measure.Reader, res *SimResult) (wehey.Verdict, error) {
	ev := core.Evidence(r.Int64())
	var lt *core.LossTrendResult
	if r.Bool() {
		lt = &core.LossTrendResult{
			CommonBottleneck: r.Bool(),
			Correlations:     int(r.Int64()),
			Sizes:            int(r.Int64()),
		}
		lt.PerSize = make([]core.IntervalVerdict, r.Count(verdictRowSize))
		for i := range lt.PerSize {
			lt.PerSize[i] = core.IntervalVerdict{
				Sigma:      r.Duration(),
				Intervals:  int(r.Int64()),
				Admissible: r.Bool(),
				Rho:        r.Float64(),
				P:          r.Float64(),
				Correlated: r.Bool(),
			}
		}
	}
	if err := r.Done(); err != nil {
		return wehey.Verdict{}, err
	}
	if ev != core.EvidenceNone && ev != core.EvidenceShared {
		return wehey.Verdict{}, errors.New("evidence other than none or shared without a throughput comparison")
	}
	return wehey.Verdict{
		WeHeDetected:   true,
		Confirmed:      true,
		Evidence:       ev,
		LocalizedToISP: ev.Found(),
		Detail:         core.DetectorResult{Evidence: ev, LossTrend: lt},
		LossRates:      res.LossRate,
	}, nil
}

// readResult reads an encodeResult value; the caller checks r.Done.
func readResult(r *measure.Reader) SimResult {
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
	return res
}
