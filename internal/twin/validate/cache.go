package validate

import (
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// Cache stamps: bump on any change to the drivers, the spec encoding, or
// the value encoding — a stale entry must never be indistinguishable from
// a fresh run.
const (
	tbfCacheSchema    = "wehey/twincache/tbf/v1"
	mg1CacheSchema    = "wehey/twincache/mg1/v1"
	hybridCacheSchema = "wehey/twincache/hybrid/v1"
)

// Cache memoizes validation-point ground truth, keyed by the full point
// spec. Points are deterministic in their spec (seeded arrivals, seeded
// service draws), so a cached measurement is exactly a rerun — warm
// validation sweeps only pay for the analytical side.
type Cache struct {
	tbf    *simcache.Cache[TBFMeasurement]
	mg1    *simcache.Cache[MG1Summary]
	hybrid *simcache.Cache[HybridMeasurement]
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{
		tbf:    simcache.New[TBFMeasurement](),
		mg1:    simcache.New[MG1Summary](),
		hybrid: simcache.New[HybridMeasurement](),
	}
}

// NewDiskCache returns a cache persisted under dir (one file per point,
// shared with nothing else — the stamps namespace the keys).
func NewDiskCache(dir string) (*Cache, error) {
	tbf, err := simcache.NewDisk(dir, tbfCodec())
	if err != nil {
		return nil, err
	}
	mg1, err := simcache.NewDisk(dir, mg1Codec())
	if err != nil {
		return nil, err
	}
	hybrid, err := simcache.NewDisk(dir, hybridCodec())
	if err != nil {
		return nil, err
	}
	return &Cache{tbf: tbf, mg1: mg1, hybrid: hybrid}, nil
}

// Stats returns the combined counters over all point kinds.
func (c *Cache) Stats() simcache.Stats {
	t, m, h := c.tbf.Stats(), c.mg1.Stats(), c.hybrid.Stats()
	return simcache.Stats{
		Hits:     t.Hits + m.Hits + h.Hits,
		DiskHits: t.DiskHits + m.DiskHits + h.DiskHits,
		Misses:   t.Misses + m.Misses + h.Misses,
	}
}

// tbfPoint runs one TBF grid point through the cache.
func (c *Cache) tbfPoint(pt TBFPoint) TBFMeasurement {
	key := simcache.KeyOf(tbfCacheSchema, encodeTBFPoint(pt))
	return c.tbf.Get(key, func() TBFMeasurement {
		return RunTBFPoint(pt.Params, pt.Proc, pt.Seed)
	})
}

// mg1Point runs one service grid point through the cache.
func (c *Cache) mg1Point(pt MG1Point) MG1Summary {
	key := simcache.KeyOf(mg1CacheSchema, encodeMG1Point(pt))
	return c.mg1.Get(key, func() MG1Summary {
		return RunMG1Point(pt)
	})
}

// hybridPoint runs one hybrid grid point in the given mode through the
// cache. The mode is part of the encoded spec so the packet and fluid
// measurements of the same point never alias.
func (c *Cache) hybridPoint(pt HybridPoint, fluid bool) HybridMeasurement {
	key := simcache.KeyOf(hybridCacheSchema, encodeHybridPoint(pt, fluid))
	return c.hybrid.Get(key, func() HybridMeasurement {
		return RunHybridPoint(pt, fluid)
	})
}

// encodeTBFPoint canonically serializes the ground-truth-determining spec
// fields (Name and Tol deliberately excluded: renaming a point or widening
// a band must not invalidate its measurement).
//
//lint:ignore cachekey Name and Tol do not affect simulated ground truth; see doc comment
func encodeTBFPoint(pt TBFPoint) []byte {
	b := make([]byte, 0, 64)
	b = measure.AppendFloat64(b, pt.Params.Rate)
	b = measure.AppendInt64(b, int64(pt.Params.Burst))
	b = measure.AppendInt64(b, int64(pt.Params.QueueLimit))
	b = measure.AppendInt64(b, int64(pt.Params.PacketSize))
	b = measure.AppendFloat64(b, pt.Params.Offered)
	b = measure.AppendInt64(b, int64(pt.Params.Horizon))
	b = measure.AppendString(b, string(pt.Proc))
	b = measure.AppendInt64(b, pt.Seed)
	return b
}

func tbfCodec() simcache.Codec[TBFMeasurement] {
	return simcache.Codec[TBFMeasurement]{
		Encode: func(m TBFMeasurement) []byte {
			b := make([]byte, 0, 32)
			b = measure.AppendFloat64(b, m.LossRate)
			b = measure.AppendInt64(b, int64(m.MeanQueueDelay))
			drops := int64(0)
			if m.Drops {
				drops = 1
			}
			b = measure.AppendInt64(b, drops)
			b = measure.AppendInt64(b, int64(m.FirstDrop))
			return b
		},
		Decode: func(b []byte) (TBFMeasurement, error) {
			r := measure.NewReader(b)
			m := TBFMeasurement{
				LossRate:       r.Float64(),
				MeanQueueDelay: r.Duration(),
				Drops:          r.Int64() != 0,
				FirstDrop:      r.Duration(),
			}
			return m, r.Done()
		},
	}
}

// encodeHybridPoint canonically serializes a hybrid point spec plus the
// packet/fluid mode it was measured under; like encodeTBFPoint it
// deliberately excludes Name and Tol.
//
//lint:ignore cachekey Name and Tol do not affect simulated ground truth; see doc comment
func encodeHybridPoint(pt HybridPoint, fluid bool) []byte {
	b := make([]byte, 0, 96)
	b = measure.AppendFloat64(b, pt.Rate)
	b = measure.AppendInt64(b, int64(pt.Burst))
	b = measure.AppendInt64(b, int64(pt.QueueLimit))
	b = measure.AppendFloat64(b, pt.BgRate)
	b = measure.AppendFloat64(b, pt.BgModSpread)
	b = measure.AppendInt64(b, int64(pt.BgModPeriod))
	b = measure.AppendInt64(b, int64(pt.BgPacket))
	b = measure.AppendFloat64(b, pt.FgRate)
	b = measure.AppendInt64(b, int64(pt.FgPacket))
	b = measure.AppendString(b, string(pt.FgProc))
	b = measure.AppendInt64(b, int64(pt.Horizon))
	b = measure.AppendInt64(b, pt.Seed)
	mode := int64(0)
	if fluid {
		mode = 1
	}
	b = measure.AppendInt64(b, mode)
	return b
}

func hybridCodec() simcache.Codec[HybridMeasurement] {
	return simcache.Codec[HybridMeasurement]{
		Encode: func(m HybridMeasurement) []byte {
			b := make([]byte, 0, 40)
			b = measure.AppendFloat64(b, m.BgLossRate)
			b = measure.AppendFloat64(b, m.FgLossRate)
			b = measure.AppendInt64(b, int64(m.FgP50))
			b = measure.AppendInt64(b, int64(m.FgP95))
			b = measure.AppendInt64(b, m.Events)
			return b
		},
		Decode: func(b []byte) (HybridMeasurement, error) {
			r := measure.NewReader(b)
			m := HybridMeasurement{
				BgLossRate: r.Float64(),
				FgLossRate: r.Float64(),
				FgP50:      r.Duration(),
				FgP95:      r.Duration(),
				Events:     r.Int64(),
			}
			return m, r.Done()
		},
	}
}

// encodeMG1Point canonically serializes an MG1 point spec; like
// encodeTBFPoint it deliberately excludes Name and Tol.
//
//lint:ignore cachekey Name and Tol do not affect simulated ground truth; see doc comment
func encodeMG1Point(pt MG1Point) []byte {
	b := make([]byte, 0, 64)
	b = measure.AppendInt64(b, int64(pt.Servers))
	b = measure.AppendFloat64(b, pt.Lambda)
	b = measure.AppendFloat64(b, pt.MeanService)
	b = measure.AppendFloat64(b, pt.SCV)
	b = measure.AppendInt64(b, int64(pt.Jobs))
	b = measure.AppendInt64(b, pt.Seed)
	return b
}

func mg1Codec() simcache.Codec[MG1Summary] {
	return simcache.Codec[MG1Summary]{
		Encode: func(s MG1Summary) []byte {
			b := make([]byte, 0, 40)
			b = measure.AppendInt64(b, int64(s.Jobs))
			exact := int64(0)
			if s.ExactSchedule {
				exact = 1
			}
			b = measure.AppendInt64(b, exact)
			b = measure.AppendFloat64(b, s.MeanSojourn)
			b = measure.AppendFloat64(b, s.P50)
			b = measure.AppendFloat64(b, s.P95)
			return b
		},
		Decode: func(b []byte) (MG1Summary, error) {
			r := measure.NewReader(b)
			s := MG1Summary{
				Jobs:          int(r.Int64()),
				ExactSchedule: r.Int64() != 0,
				MeanSojourn:   r.Float64(),
				P50:           r.Float64(),
				P95:           r.Float64(),
			}
			return s, r.Done()
		},
	}
}
