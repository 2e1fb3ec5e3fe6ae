package tcio

// l2meta contention micro-benchmark (size-swept per SNIPPETS.md Snippet 2):
// many goroutines — standing in for many rank goroutines of one file —
// hammer the shared per-file metadata. Each segment's record has its own
// lock, so disjoint segments proceed in parallel.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/tcio/tcio/internal/extent"
)

// BenchmarkL2Meta performs one addDirty+takePending round trip per
// op, with parallel goroutines spread over the given number of segments.
// Bytes per op is the recorded run's length, so MB/s tracks bookkeeping
// throughput.
func BenchmarkL2Meta(b *testing.B) {
	const runLen = 512
	for _, segs := range []int64{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			m := newL2Meta(segs, false)
			b.ReportAllocs()
			b.SetBytes(runLen)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				runs := []extent.Extent{{Off: 0, Len: runLen}}
				seg := next.Add(1) % segs
				for pb.Next() {
					m.addDirty(seg, runs, 1)
					if got, _ := m.takePending(seg); len(got) == 0 {
						// A racing goroutine on the same segment took the runs;
						// the op still exercised both lock paths.
						continue
					}
				}
			})
		})
	}
}
