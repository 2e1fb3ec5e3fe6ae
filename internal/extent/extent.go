// Package extent is the repository's shared interval algebra over file
// byte ranges. Every I/O layer of the simulator reasons about the same
// object — sorted lists of contiguous (offset, length) runs: TCIO's
// level-1 block lists and level-2 segments, OCIO's flattened file views
// and aggregator domains, and the parallel file system's stripes and
// readahead windows. Thakur et al.'s list-I/O work (PAPERS.md) showed the
// performance of noncontiguous access optimizations comes from one
// first-class run-list representation with one optimized code path; this
// package is that path, so the higher layers compose instead of each
// reimplementing interval arithmetic.
//
// The operations are:
//
//   - Coalesce: sort and merge adjacent/overlapping runs (the level-1
//     combine step, OCIO's request flattening).
//   - SplitAt: cut runs at multiples of a granularity (segment and stripe
//     boundaries).
//   - Layout (layout.go): the paper's equations (1)-(3) round-robin
//     offset -> (rank, segment, displacement) mapping, and its piece walk.
//   - Partition (partition.go): OCIO's equal contiguous file domains.
//   - PutRun / DecodeRuns (wire.go): the one wire codec for
//     run lists.
//
// All functions treat a nil list as empty and never return zero-length
// runs.
package extent

import (
	"cmp"
	"slices"

	"github.com/tcio/tcio/internal/mutate"
)

// Extent is one contiguous run of bytes: the half-open interval
// [Off, Off+Len). datatype.Segment is an alias of this type, so run lists
// flow between the layers without conversion.
type Extent struct {
	Off int64 // byte offset
	Len int64 // run length in bytes
}

// End returns the exclusive upper bound of the run.
func (e Extent) End() int64 { return e.Off + e.Len }

// Coalesce sorts runs by offset and merges adjacent or overlapping ones.
// Zero-length runs are dropped. The input slice may be reordered and its
// storage reused for the result. Lists that arrive sorted — flattened
// views, level-1 blocks written in ascending order — skip the sort, and
// no input allocates.
func Coalesce(list []Extent) []Extent {
	out := list[:0]
	sorted := true
	for _, e := range list {
		if e.Len > 0 {
			if n := len(out); n > 0 && e.Off < out[n-1].Off {
				sorted = false
			}
			out = append(out, e)
		}
	}
	if !sorted {
		slices.SortFunc(out, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
	}
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].End() >= e.Off {
			if end := e.End(); end > merged[n-1].End() &&
				!mutate.Enabled(mutate.ExtentDroppedCoalesce) {
				merged[n-1].Len = end - merged[n-1].Off
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// Total sums the lengths of all runs (overlaps counted once only if the
// list is coalesced).
func Total(list []Extent) int64 {
	var n int64
	for _, e := range list {
		if e.Len > 0 {
			n += e.Len
		}
	}
	return n
}

// SplitAt cuts every run at multiples of the granularity, so no returned
// run crosses a boundary — the file system's stripe-by-stripe cost
// accounting. Run order and coverage are preserved;
// gran < 1 returns the non-empty runs unchanged.
func SplitAt(list []Extent, gran int64) []Extent {
	out := make([]Extent, 0, len(list))
	for _, e := range list {
		if e.Len <= 0 {
			continue
		}
		if gran < 1 {
			out = append(out, e)
			continue
		}
		for e.Len > 0 {
			n := gran - e.Off%gran
			if n > e.Len {
				n = e.Len
			}
			out = append(out, Extent{Off: e.Off, Len: n})
			e.Off += n
			e.Len -= n
		}
	}
	return out
}
