package tcio

// Config normalization: the defaulting and bounds rules that used to live
// inline in Open, expressed as a table so every knob's zero-default and
// legal range is declared in one row (and tested row by row). Normalize is
// exported because the delegation tier (internal/delegate) reuses it: a
// delegation client never opens a level-2 window, but servers and clients
// must still agree on the segment geometry the file domains derive from,
// so both layers normalize the same Config the same way.

import (
	"fmt"

	"github.com/tcio/tcio/internal/faults"
)

// normRule is one Config field's normalization row: where the field lives,
// the default applied when it is zero, and the smallest legal value after
// defaulting. Fields whose zero value is meaningful (PrefetchSegments,
// SieveBuffer: "feature off") have no default.
type normRule struct {
	name string // label used in error messages
	get  func(*Config) int64
	set  func(*Config, int64)
	// def supplies the value substituted for zero; nil keeps zero. The
	// stripe size is passed through for SegmentSize's "use the file
	// system's lock granularity" default.
	def func(cfg *Config, stripe int64) int64
	min int64 // smallest legal value after defaulting
}

// normTable drives Normalize. Order matters only in that MaxCachedSegments
// defaults from PrefetchSegments, which precedes it.
var normTable = []normRule{
	{
		name: "segment size",
		get:  func(c *Config) int64 { return c.SegmentSize },
		set:  func(c *Config, v int64) { c.SegmentSize = v },
		def:  func(_ *Config, stripe int64) int64 { return stripe },
		min:  1,
	},
	{
		name: "segment count",
		get:  func(c *Config) int64 { return int64(c.NumSegments) },
		set:  func(c *Config, v int64) { c.NumSegments = int(v) },
		def:  func(*Config, int64) int64 { return 64 },
		min:  1,
	},
	{
		name: "fetch batch",
		get:  func(c *Config) int64 { return int64(c.FetchBatch) },
		set:  func(c *Config, v int64) { c.FetchBatch = int(v) },
		def:  func(*Config, int64) int64 { return 64 },
		min:  1,
	},
	{
		name: "pipeline depth",
		get:  func(c *Config) int64 { return int64(c.PipelineDepth) },
		set:  func(c *Config, v int64) { c.PipelineDepth = int(v) },
		def:  func(*Config, int64) int64 { return 8 },
		min:  1,
	},
	{
		name: "write-behind queue",
		get:  func(c *Config) int64 { return int64(c.WriteBehindQueue) },
		set:  func(c *Config, v int64) { c.WriteBehindQueue = int(v) },
		def:  func(*Config, int64) int64 { return 32 },
		min:  1,
	},
	{
		name: "prefetch segments",
		get:  func(c *Config) int64 { return int64(c.PrefetchSegments) },
		set:  func(c *Config, v int64) { c.PrefetchSegments = int(v) },
		min:  0,
	},
	{
		name: "max cached segments",
		get:  func(c *Config) int64 { return int64(c.MaxCachedSegments) },
		set:  func(c *Config, v int64) { c.MaxCachedSegments = int(v) },
		def:  func(c *Config, _ int64) int64 { return int64(c.PrefetchSegments) },
		min:  0,
	},
	{
		name: "sieve buffer",
		get:  func(c *Config) int64 { return c.SieveBuffer },
		set:  func(c *Config, v int64) { c.SieveBuffer = v },
		min:  0,
	},
}

// Normalize returns the configuration with every zero field replaced by
// its documented default and every out-of-range field rejected.
// stripeSize supplies SegmentSize's default — the file system's lock
// granularity, as §IV.A prescribes. The receiver is unchanged.
func (cfg Config) Normalize(stripeSize int64) (Config, error) {
	for _, r := range normTable {
		v := r.get(&cfg)
		if v == 0 && r.def != nil {
			v = r.def(&cfg, stripeSize)
			r.set(&cfg, v)
		}
		if v < r.min {
			return cfg, fmt.Errorf("tcio: %s %d", r.name, v)
		}
	}
	if cfg.WriteBehindThreshold < 0 || cfg.WriteBehindThreshold > 1 {
		return cfg, fmt.Errorf("tcio: write-behind threshold %g", cfg.WriteBehindThreshold)
	}
	if cfg.MaxCachedSegments < cfg.PrefetchSegments {
		// A cache smaller than the lookahead would evict the very segments
		// the prefetcher just staged, turning every prefetch into a wasted
		// duplicate read.
		cfg.MaxCachedSegments = cfg.PrefetchSegments
	}
	if cfg.SegmentMemoryBudget < 0 {
		return cfg, fmt.Errorf("tcio: segment memory budget %d", cfg.SegmentMemoryBudget)
	}
	if cfg.SegmentMemoryBudget > 0 {
		// The budget only makes sense over the epoch log: spilling a dirty
		// segment is free exactly because its bytes are already journaled.
		cfg.Journal = true
		if cfg.SegmentMemoryBudget < cfg.SegmentSize {
			cfg.SegmentMemoryBudget = cfg.SegmentSize
		}
		// The prefetch lookahead and its cache must fit the same budget the
		// window does, or arming the budget would move pressure into an
		// unaccounted cache instead of relieving it. Both clamp to the same
		// bound, so MaxCachedSegments >= PrefetchSegments is preserved.
		maxResident := int(cfg.SegmentMemoryBudget / cfg.SegmentSize)
		if cfg.PrefetchSegments > maxResident {
			cfg.PrefetchSegments = maxResident
		}
		if cfg.MaxCachedSegments > maxResident {
			cfg.MaxCachedSegments = maxResident
		}
	}
	return cfg, nil
}

// retryPolicy resolves the Retry knob: nil means the default policy.
func (cfg *Config) retryPolicy() faults.RetryPolicy {
	if cfg.Retry != nil {
		return *cfg.Retry
	}
	return faults.DefaultRetryPolicy()
}
