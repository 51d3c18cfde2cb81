package dataset

import "math"

// This file holds the shard-backed storage layer's statistics: the per-shard
// column-stat partials that ensureStats merges on demand, and the shard
// granularity schedulers align row scans to. The merged statistics snapshot
// is byte-identical to the flat one (TestShardedStatsMatchFlat).

// shardPartial is the per-shard column-stat partial adopted with a shard:
// the exact-mergeable pieces only. Min and max merge bit-identically
// under any merge order because comparisons are exact; mean/variance partials
// are deliberately absent (see ensureStats for why).
type shardPartial struct {
	mn, mx []float64
}

// newShardPartial scans one shard's row-major block and returns its partial.
func newShardPartial(block []float64, d int) shardPartial {
	p := shardPartial{mn: make([]float64, d), mx: make([]float64, d)}
	for j := 0; j < d; j++ {
		p.mn[j] = math.Inf(1)
		p.mx[j] = math.Inf(-1)
	}
	for base := 0; base < len(block); base += d {
		for j := 0; j < d; j++ {
			v := block[base+j]
			if v < p.mn[j] {
				p.mn[j] = v
			}
			if v > p.mx[j] {
				p.mx[j] = v
			}
		}
	}
	return p
}

// mergedMinMax merges the per-shard min/max partials into whole-matrix
// columns, or returns (nil, nil) for flat storage, which has no partials, so
// the caller must track min/max itself. The merge folds shards in index order, but min/max are exact so
// any order would produce the same bits.
func (ds *Dataset) mergedMinMax() (mn, mx []float64) {
	if len(ds.partials) == 0 {
		return nil, nil
	}
	mn = make([]float64, ds.d)
	mx = make([]float64, ds.d)
	for j := 0; j < ds.d; j++ {
		mn[j] = math.Inf(1)
		mx[j] = math.Inf(-1)
	}
	for _, p := range ds.partials {
		for j := 0; j < ds.d; j++ {
			if p.mn[j] < mn[j] {
				mn[j] = p.mn[j]
			}
			if p.mx[j] > mx[j] {
				mx[j] = p.mx[j]
			}
		}
	}
	return mn, mx
}

// ShardRows reports the sharding granularity of the backing storage: the
// number of rows per shard (the last shard may be shorter) for a
// shard-backed dataset, or 0 for flat storage. Row scans pass it as the
// engine's chunk size, so on shard-backed storage every chunk covers exactly
// one shard and on flat storage (0) the engine sizes the chunks itself.
func (ds *Dataset) ShardRows() int { return ds.shardRows }
