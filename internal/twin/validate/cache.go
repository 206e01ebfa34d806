package validate

import (
	"errors"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// Cache stamps: bump on any change to the drivers or the value encoding —
// a stale entry must never be indistinguishable from a fresh run. The
// point structs' shapes are keyed by construction (simcache.KeyFor).
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
	key := simcache.KeyFor(tbfCacheSchema, pt)
	return c.tbf.Get(key, func() TBFMeasurement {
		return RunTBFPoint(pt.Params, pt.Proc, pt.Seed)
	})
}

// mg1Point runs one service grid point through the cache.
func (c *Cache) mg1Point(pt MG1Point) MG1Summary {
	key := simcache.KeyFor(mg1CacheSchema, pt)
	return c.mg1.Get(key, func() MG1Summary {
		return RunMG1Point(pt)
	})
}

// hybridPoint runs one hybrid grid point in the given mode through the
// cache. The mode is part of the keyed spec so the packet and fluid
// measurements of the same point never alias.
func (c *Cache) hybridPoint(pt HybridPoint, fluid bool) HybridMeasurement {
	key := simcache.KeyFor(hybridCacheSchema, struct {
		Point HybridPoint
		Fluid bool
	}{pt, fluid})
	return c.hybrid.Get(key, func() HybridMeasurement {
		return RunHybridPoint(pt, fluid)
	})
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
			var m TBFMeasurement
			var err error
			var v int64
			if m.LossRate, b, err = measure.DecodeFloat64(b); err != nil {
				return m, err
			}
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			m.MeanQueueDelay = time.Duration(v)
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			m.Drops = v != 0
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			m.FirstDrop = time.Duration(v)
			if len(b) != 0 {
				return m, errors.New("twincache: trailing bytes in TBF entry")
			}
			return m, nil
		},
	}
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
			var m HybridMeasurement
			var err error
			var v int64
			if m.BgLossRate, b, err = measure.DecodeFloat64(b); err != nil {
				return m, err
			}
			if m.FgLossRate, b, err = measure.DecodeFloat64(b); err != nil {
				return m, err
			}
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			m.FgP50 = time.Duration(v)
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			m.FgP95 = time.Duration(v)
			if m.Events, b, err = measure.DecodeInt64(b); err != nil {
				return m, err
			}
			if len(b) != 0 {
				return m, errors.New("twincache: trailing bytes in hybrid entry")
			}
			return m, nil
		},
	}
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
			var s MG1Summary
			var err error
			var v int64
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return s, err
			}
			s.Jobs = int(v)
			if v, b, err = measure.DecodeInt64(b); err != nil {
				return s, err
			}
			s.ExactSchedule = v != 0
			if s.MeanSojourn, b, err = measure.DecodeFloat64(b); err != nil {
				return s, err
			}
			if s.P50, b, err = measure.DecodeFloat64(b); err != nil {
				return s, err
			}
			if s.P95, b, err = measure.DecodeFloat64(b); err != nil {
				return s, err
			}
			if len(b) != 0 {
				return s, errors.New("twincache: trailing bytes in MG1 entry")
			}
			return s, nil
		},
	}
}
