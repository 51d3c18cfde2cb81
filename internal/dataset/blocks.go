package dataset

import "fmt"

// FromShardBlocks adopts pre-built shard backing slices as a read-only
// shard-backed dataset without copying them. It is the constructor behind
// the mmap storage tier (binfmt.OpenBinary): the blocks alias regions of a
// read-only file mapping, so the returned dataset refuses Set (panic) —
// every other accessor behaves exactly as on flat storage.
//
// blocks[s] must hold shard s's rows row-major: every block except the last
// carries exactly shardRows rows, the last carries between 1 and shardRows.
// mins and maxs, when non-nil, supply the per-shard column min/max partials
// (len(blocks) slices of d values each, adopted without copying); when nil,
// the partials are computed by scanning the blocks. Callers handing over
// untrusted partials must verify them first — ensureStats trusts them.
func FromShardBlocks(d, shardRows int, blocks [][]float64, mins, maxs [][]float64) (*Dataset, error) {
	if d <= 0 {
		return nil, fmt.Errorf("dataset: FromShardBlocks: d = %d must be positive", d)
	}
	if shardRows <= 0 {
		return nil, fmt.Errorf("dataset: FromShardBlocks: shardRows = %d must be positive", shardRows)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("dataset: FromShardBlocks: no shard blocks")
	}
	if (mins == nil) != (maxs == nil) {
		return nil, fmt.Errorf("dataset: FromShardBlocks: mins and maxs must both be present or both nil")
	}
	if mins != nil && (len(mins) != len(blocks) || len(maxs) != len(blocks)) {
		return nil, fmt.Errorf("dataset: FromShardBlocks: %d min / %d max partials for %d blocks",
			len(mins), len(maxs), len(blocks))
	}
	n := 0
	for s, blk := range blocks {
		if len(blk) == 0 || len(blk)%d != 0 {
			return nil, fmt.Errorf("dataset: FromShardBlocks: block %d has %d values, not a positive multiple of d=%d",
				s, len(blk), d)
		}
		rows := len(blk) / d
		if s < len(blocks)-1 && rows != shardRows {
			return nil, fmt.Errorf("dataset: FromShardBlocks: block %d has %d rows, want %d (only the last may be short)",
				s, rows, shardRows)
		}
		if rows > shardRows {
			return nil, fmt.Errorf("dataset: FromShardBlocks: block %d has %d rows, exceeds shardRows=%d",
				s, rows, shardRows)
		}
		if mins != nil && (len(mins[s]) != d || len(maxs[s]) != d) {
			return nil, fmt.Errorf("dataset: FromShardBlocks: partial %d has %d/%d values, want %d",
				s, len(mins[s]), len(maxs[s]), d)
		}
		n += rows
	}
	out := &Dataset{n: n, d: d, shardRows: shardRows, shards: blocks}
	out.partials = make([]shardPartial, len(blocks))
	for s := range blocks {
		if mins != nil {
			out.partials[s] = shardPartial{mn: mins[s], mx: maxs[s]}
		} else {
			out.partials[s] = newShardPartial(blocks[s], d)
		}
	}
	return out, nil
}
