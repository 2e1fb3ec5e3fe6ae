package tcio

// Put-epoch pipelining: the LRU order of open epochs.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
)

// TestEpochEvictionLRU checks that reusing an open epoch protects it from
// eviction: with pipelineDepth open epochs to owners A, B, ..., reusing A
// and then shipping to one more owner evicts the cold B, not A.
func TestEpochEvictionLRU(t *testing.T) {
	const procs = pipelineDepth + 2
	run(t, procs, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: 16, NumSegments: 16}
		f, err := Open(c, "lru", WriteMode, cfg)
		if err != nil {
			return err
		}
		// Segment s is owned by rank s%procs. Each write realigns the
		// level-1 buffer and ships the PREVIOUS segment, so the ship
		// sequence of owners is 1..pipelineDepth, then 1 again (reused),
		// then pipelineDepth+1: that last ship must evict the cold owner 2.
		var segs []int64
		for o := int64(1); o <= pipelineDepth; o++ {
			segs = append(segs, o)
		}
		segs = append(segs, procs+1, pipelineDepth+1, procs+2)
		if c.Rank() == 0 {
			for _, seg := range segs {
				if err := f.WriteAt(seg*16, []byte{byte(seg)}); err != nil {
					return err
				}
			}
			var want []int
			for o := 3; o <= pipelineDepth; o++ {
				want = append(want, o)
			}
			want = append(want, 1, pipelineDepth+1)
			if fmt.Sprint(f.openOwners) != fmt.Sprint(want) {
				return fmt.Errorf("open epochs %v, want %v (LRU kept the reused epoch)", f.openOwners, want)
			}
			if f.stats.EpochEvictions != 1 {
				return fmt.Errorf("EpochEvictions = %d, want 1", f.stats.EpochEvictions)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := c.FS().Open("lru").Snapshot()
			want := make([]byte, (procs+2)*16+1)
			for _, seg := range segs {
				want[seg*16] = byte(seg)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("file image differs:\n got %v\nwant %v", got, want)
			}
		}
		return nil
	})
}
