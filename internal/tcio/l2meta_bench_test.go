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

// BenchmarkL2MetaMissingRuns measures the read-side query the sieved read
// path issues per fetch: coverage subtraction against dirty and partially
// populated runs.
func BenchmarkL2MetaMissingRuns(b *testing.B) {
	const segSize = 8192
	for _, segs := range []int64{16, 256} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			m := newL2Meta(segs, false)
			for s := int64(0); s < segs; s++ {
				m.addDirty(s, []extent.Extent{{Off: 128, Len: 256}}, 1)
				m.addPopRuns(s, []extent.Extent{{Off: 1024, Len: 512}}, segSize, 0)
			}
			need := []extent.Extent{{Off: 0, Len: 2048}}
			b.ReportAllocs()
			b.SetBytes(2048)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				seg := next.Add(1) % segs
				for pb.Next() {
					if got := m.missingRuns(seg, need); len(got) == 0 {
						b.Error("missing runs vanished")
						return
					}
				}
			})
		})
	}
}
