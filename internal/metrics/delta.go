package metrics

// CacheStats counts what the per-block cache did for the blocks of one
// or more compiles, per tier (CompileMetrics.Reuse). The memory tier
// holds finished blocks (post-peephole covering + emitted code); the
// disk tier holds serialized coverings under the same per-block key.
// Stitched = MemHits + DiskHits and Stitched + Recompiled = blocks
// compiled, so the blocks-recompiled ratio of an edit stream is
// Recompiled / (Stitched + Recompiled).
//
// avivd /stats embeds the struct as the "delta" section (the name
// predates the single compile path) on every server, summed over every
// request; it is the endpoint's one record of block reuse. The JSON
// field names below are that endpoint's contract (pinned by tests in
// internal/metrics and internal/server).
type CacheStats struct {
	// Entries is the current block count in the memory tier.
	Entries int64 `json:"entries"`
	// MemHits / MemMisses count block lookups against the memory tier.
	MemHits   int64 `json:"mem_hits"`
	MemMisses int64 `json:"mem_misses"`
	// DiskHits / DiskMisses count lookups that fell through to the
	// persistent tier (only misses of the memory tier get this far; a
	// compile with no persistent tier counts neither).
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// Stitched counts blocks served from either tier without re-running
	// the covering search.
	Stitched int64 `json:"stitched"`
	// Recompiled counts blocks that went through the full per-block
	// pipeline because no tier had their key.
	Recompiled int64 `json:"recompiled"`
	// Invalidations counts persistent entries that read back clean but
	// failed to decode or rebuild, and were deleted (deletion-as-miss).
	Invalidations int64 `json:"invalidations"`
	// Evictions counts memory-tier blocks dropped to respect the entry
	// cap.
	Evictions int64 `json:"evictions"`
}

// Add accumulates o's block counts into s (Entries and Evictions are
// snapshots of the memory tier and are left alone).
func (s *CacheStats) Add(o CacheStats) {
	s.MemHits += o.MemHits
	s.MemMisses += o.MemMisses
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.Stitched += o.Stitched
	s.Recompiled += o.Recompiled
	s.Invalidations += o.Invalidations
}
