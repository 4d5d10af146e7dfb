package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
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
// The verdict decided on the result is a record of the directory's
// verdict log, keyed by the result's key under verdictStamp (verdictKey),
// so a rerun that needs only verdicts reads one small file, not a trial's
// result per trial.

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
// v4: the entry carried the trial's verdict after the result.
// v5: the verdict left the result's entry for its own (verdictKey).
const simCacheSchema = "wehey/simcache/v5"

// verdictStamp keys and heads a trial's verdict entry. Bump it whenever
// decide's output on a fixed SimResult changes: internal/core,
// internal/stats, measure.LossSweep, the Localizer{} defaults, or the
// entry's layout (appendVerdictEntry). Every verdict entry is then
// orphaned, and each trial decides again, once, on its result entry; the
// simulation is not rerun. TestVerdictStampGuards fails when the bytes
// move and this stamp does not.
const verdictStamp = "wehey/verdict/v1"

// SimCache memoizes trials in two content-addressed tables: each
// SimSpec's RunSim result, and the verdict Config.Localize reaches on it.
// A result miss simulates and decides at once, and the verdict is
// published (and stored) before the result is. Results and verdicts
// handed out are shared: callers must not mutate them (the experiment
// generators and the service only read; a Verdict's Detail holds pointers
// into the entry).
//
// The verdict is as pure as the result: decide reads nothing but the
// result, which is a function of the filled SimSpec (Config.BackgroundMode
// is folded into the spec before keying, as Sim folds it). A Config field
// that ever changes the decision must enter the key too.
type SimCache struct {
	results  *simcache.Cache[*trial]
	verdicts *simcache.Cache[*decision]
	decided  atomic.Int64 // verdicts decided: one per simulation, plus one per verdict miss over a result read from disk
}

// decision is what decide returned on one trial's result.
type decision struct {
	v   wehey.Verdict
	err error
}

// trial is a result-table entry: a simulation's result and, when it was
// simulated in this process, the decision reached on it at once. A result
// read from disk carries none; its verdict is the verdict table's.
type trial struct {
	res SimResult
	d   *decision
}

// NewSimCache returns an in-process (memory-only) simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{results: simcache.New[*trial](), verdicts: simcache.New[*decision]()}
}

// verdictLog is the file, in a disk cache's directory, that holds every
// verdict as a record: a rerun reads it once instead of a file per trial.
const verdictLog = "verdicts.log"

// NewDiskSimCache returns a simulation cache persisted under dir, so a
// later process skips every simulation, and every decision, this one ran.
// Each result is an entry file of its own; the verdicts are records of
// one log in dir, read on the first verdict asked for, not here.
func NewDiskSimCache(dir string) (*SimCache, error) {
	results, err := simcache.NewDisk(dir, simcache.Codec[*trial]{
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
	verdicts, err := simcache.NewLog(filepath.Join(dir, verdictLog), simcache.Codec[*decision]{
		Encode: encodeVerdictEntry,
		Decode: func(b []byte) (*decision, error) {
			v, err := decodeVerdictEntry(b)
			if err != nil {
				return nil, err
			}
			return &decision{v: v}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &SimCache{results: results, verdicts: verdicts}, nil
}

// cacheKeys fills spec and returns the keys of its result and of its
// verdict. Filling canonicalizes before keying: defaulted == spelled out.
// The spec is encoded on the stack: 114 bytes plus its two strings, so
// only a spec whose strings exceed specBufSize between them reaches the
// heap.
func cacheKeys(spec *SimSpec) (rkey, vkey simcache.Key) {
	spec.fill()
	var buf [specBufSize]byte
	rkey = simcache.KeyOf(simCacheSchema, appendSpec(buf[:0], spec))
	return rkey, verdictKey(rkey)
}

// specBufSize is cacheKeys's stack buffer for a spec's encoding.
const specBufSize = 256

// verdictKey addresses the verdict on the result under rkey. A
// simCacheSchema bump moves rkey, so it orphans the verdicts with the
// results; a verdictStamp bump orphans the verdicts alone.
func verdictKey(rkey simcache.Key) simcache.Key {
	return simcache.KeyOf(verdictStamp, rkey.Bytes())
}

// decide is the package-level decide, counted.
func (sc *SimCache) decide(res *SimResult) *decision {
	v, err := decide(res)
	sc.decided.Add(1)
	return &decision{v, err}
}

// result returns spec's result-table entry. A miss simulates and decides
// at once, and offers the decision to the verdict table before the result
// is published; concurrent requests single-flight onto one simulation. A
// panic in either unpublishes the flight.
func (sc *SimCache) result(spec SimSpec, rkey, vkey simcache.Key) *trial {
	return sc.results.Get(rkey, func() *trial {
		t := &trial{res: RunSim(spec)}
		t.d = sc.decide(&t.res)
		// A no-op when a Localize of this spec leads the verdict's flight
		// and is waiting for this result: it takes t.d and stores it.
		sc.verdicts.Put(vkey, t.d)
		return t
	})
}

// localize is spec's verdict. A verdict hit reads nothing else; a miss
// takes the result (memory, disk or a simulation) and the decision made
// with it, and decides only a result read from disk.
func (sc *SimCache) localize(spec SimSpec) (wehey.Verdict, error) {
	rkey, vkey := cacheKeys(&spec)
	d := sc.verdicts.Get(vkey, func() *decision {
		t := sc.result(spec, rkey, vkey)
		if t.d != nil {
			return t.d
		}
		return sc.decide(&t.res)
	})
	return d.v, d.err
}

// Stats snapshots both tables' counters as one cache's: each Sim,
// Localize or trial call is one request, served by the first table that
// holds its answer, so Misses counts simulations. A verdict miss is no
// request of its own: the result request that answers it counts. A
// trial whose result was read from disk, and whose verdict is then asked
// for, reads the verdict table too, and that lookup counts as well.
func (sc *SimCache) Stats() simcache.Stats {
	r, v := sc.results.Stats(), sc.verdicts.Stats()
	return simcache.Stats{
		Hits:         r.Hits + v.Hits,
		DiskHits:     r.DiskHits + v.DiskHits,
		Misses:       r.Misses,
		Corrupt:      r.Corrupt + v.Corrupt,
		BytesRead:    r.BytesRead + v.BytesRead,
		BytesWritten: r.BytesWritten + v.BytesWritten,
		WriteErrors:  r.WriteErrors + v.WriteErrors,
		ReadErrors:   r.ReadErrors + v.ReadErrors,
	}
}

// Decided counts the verdicts this cache has decided: one per
// simulation, and one per verdict miss over a result read from disk.
func (sc *SimCache) Decided() int64 { return sc.decided.Load() }

// trialRef is what Config.trial hands the generators that read both a
// result and its verdict: the result, and the road to the verdict.
type trialRef struct {
	*trial
	sc   *SimCache // nil without a cache
	vkey simcache.Key
}

// verdict returns the trial's verdict: the decision made with the
// simulation when there was one in this process, else the verdict
// table's (its entry, or one decision on the result, single-flighted),
// else — without a cache — a decision made now.
func (r trialRef) verdict() (wehey.Verdict, error) {
	d := r.d
	switch {
	case d != nil:
	case r.sc != nil:
		d = r.sc.verdicts.Get(r.vkey, func() *decision { return r.sc.decide(&r.res) })
	default:
		return decide(&r.res)
	}
	return d.v, d.err
}

// withMode folds the config-level background mode into spec. It is a
// default for specs that don't pin one; experiments explicitly about the
// mode (ablation-scale) set it per spec and win.
func (c Config) withMode(spec SimSpec) SimSpec {
	if c.BackgroundMode != "" && spec.BackgroundMode == "" {
		spec.BackgroundMode = c.BackgroundMode
	}
	return spec
}

// trial is spec's trial through the configured cache, or a fresh one when
// none is set: one cache request, the verdict asked for only when read.
func (c Config) trial(spec SimSpec) trialRef {
	spec = c.withMode(spec)
	if c.Cache == nil {
		return trialRef{trial: &trial{res: RunSim(spec)}}
	}
	rkey, vkey := cacheKeys(&spec)
	return trialRef{trial: c.Cache.result(spec, rkey, vkey), sc: c.Cache, vkey: vkey}
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
	res := readResult(r)
	return res, r.Done()
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

// appendVerdictEntry appends a verdict entry's value: appendVerdict's
// blob under stamp, then the two loss rates.
func appendVerdictEntry(b []byte, stamp string, v *wehey.Verdict) []byte {
	b = appendVerdict(b, stamp, v)
	b = measure.AppendFloat64(b, v.LossRates[0])
	return measure.AppendFloat64(b, v.LossRates[1])
}

// encodeVerdictEntry is the verdict table's encoder. Only a verdict
// decide reached without error, on loss trend alone (a sim trial has no
// T_diff), is persisted; for any other it returns nil, and the next
// process decides that trial again.
func encodeVerdictEntry(d *decision) []byte {
	if d.err != nil || d.v.Detail.Throughput != nil {
		return nil
	}
	return appendVerdictEntry(nil, verdictStamp, &d.v)
}

// verdictRowSize is the size of one appendVerdict row.
const verdictRowSize = 8 + 8 + 1 + 8 + 8 + 1

// decodeVerdictEntry inverts appendVerdictEntry under verdictStamp and
// rebuilds the Verdict decide returned: WeHe's detection and the
// confirmation hold by construction, and the headline follows the
// evidence. An entry under another stamp, or with any framing problem, is
// an error: the cache counts it corrupt and decides again.
func decodeVerdictEntry(b []byte) (wehey.Verdict, error) {
	r := measure.NewReader(b)
	stamp := r.Str()
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
	loss := [2]float64{r.Float64(), r.Float64()}
	if err := r.Done(); err != nil {
		return wehey.Verdict{}, err
	}
	if stamp != verdictStamp {
		return wehey.Verdict{}, fmt.Errorf("experiments: verdict under stamp %q, want %s", stamp, verdictStamp)
	}
	if ev != core.EvidenceNone && ev != core.EvidenceShared {
		return wehey.Verdict{}, errors.New("experiments: evidence other than none or shared without a throughput comparison")
	}
	return wehey.Verdict{
		WeHeDetected:   true,
		Confirmed:      true,
		Evidence:       ev,
		LocalizedToISP: ev.Found(),
		Detail:         core.DetectorResult{Evidence: ev, LossTrend: lt},
		LossRates:      loss,
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
