package tcio

// Config normalization: every knob's zero-default and legal range, in one
// function. Normalize is exported because the delegation tier
// (internal/delegate) and the conformance generator reuse it: a delegation
// client never opens a level-2 window, but servers and clients must still
// agree on the segment geometry the file domains derive from, and the
// oracle must accept exactly the configurations the library does.

import (
	"fmt"

	"github.com/tcio/tcio/internal/faults"
)

// Normalize returns the configuration with every zero field replaced by
// its documented default and every out-of-range field rejected. stripeSize
// supplies SegmentSize's default — the file system's lock granularity, as
// §IV.A prescribes. The receiver is unchanged.
func (cfg Config) Normalize(stripeSize int64) (Config, error) {
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = stripeSize
	}
	if cfg.NumSegments == 0 {
		cfg.NumSegments = 64
	}
	switch {
	case cfg.SegmentSize < 1:
		return cfg, fmt.Errorf("tcio: segment size %d", cfg.SegmentSize)
	case cfg.NumSegments < 1:
		return cfg, fmt.Errorf("tcio: segment count %d", cfg.NumSegments)
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
