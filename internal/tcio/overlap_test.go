package tcio

// Tests for the overlap pipeline: write-behind correctness and accounting,
// l2meta under concurrent access, and epoch LRU eviction.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

func TestOverlapConfigValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		bad := []Config{
			{SegmentSize: 64, NumSegments: 4, WriteBehindThreshold: -0.1},
			{SegmentSize: 64, NumSegments: 4, WriteBehindThreshold: 1.5},
		}
		for i, cfg := range bad {
			if _, err := Open(c, fmt.Sprintf("obad%d", i), WriteMode, cfg); err == nil {
				return fmt.Errorf("config %d accepted: %+v", i, cfg)
			}
		}
		return nil
	})
}

// TestWriteBehindBytesIdentical writes the same interleaved data twice —
// synchronously and with the eager write-behind armed — and requires
// byte-identical files and an identical file system write request count.
func TestWriteBehindBytesIdentical(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, threshold float64) (Stats, error) {
		cfg := smallCfg()
		cfg.WriteBehindThreshold = threshold
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return Stats{}, err
		}
		for i := 0; i < 64; i++ {
			off := int64(i)*16*procs + int64(c.Rank())*16
			var block [16]byte
			for b := range block {
				block[b] = byte(c.Rank()*31 + i + b)
			}
			if err := f.WriteAt(off, block[:]); err != nil {
				return Stats{}, err
			}
		}
		if err := f.Close(); err != nil {
			return Stats{}, err
		}
		return f.Stats(), nil
	}
	run(t, procs, func(c *mpi.Comm) error {
		sync0, err := write(c, "wb-sync", 0)
		if err != nil {
			return err
		}
		eager, err := write(c, "wb-eager", 1)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			a := c.FS().Open("wb-sync").Snapshot()
			b := c.FS().Open("wb-eager").Snapshot()
			if !bytes.Equal(a, b) {
				return fmt.Errorf("write-behind changed file bytes (%d vs %d)", len(a), len(b))
			}
		}
		if sync0.EagerDrains != 0 {
			return fmt.Errorf("threshold 0 ran %d eager drains", sync0.EagerDrains)
		}
		// Accounting must balance: every file system write request is
		// either an eager batch's or the final residue's. (EagerDrains
		// counts batches, not requests — at threshold 1 a covered segment
		// coalesces to one request per batch, so both identities hold here.)
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		if eager.EagerWrites != eager.EagerDrains {
			return fmt.Errorf("threshold 1: eager writes %d != eager drains %d (covered segments must coalesce)",
				eager.EagerWrites, eager.EagerDrains)
		}
		return nil
	})
}

// TestWriteBehindBackpressure fills the eager drain queue: one rank covers
// more segments than writeBehindQueue at threshold 1, so every drain past
// the bound waits for the earliest in-flight batch first, and the queue
// never holds more than writeBehindQueue batches.
func TestWriteBehindBackpressure(t *testing.T) {
	const segs, segSize = writeBehindQueue + 16, 64
	run(t, 1, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: segSize, NumSegments: segs, WriteBehindThreshold: 1}
		f, err := Open(c, "wb-backpressure", WriteMode, cfg)
		if err != nil {
			return err
		}
		want := make([]byte, segs*segSize)
		for i := range want {
			want[i] = byte(i*5 + i>>6)
		}
		peak := 0
		for s := 0; s < segs; s++ {
			// Covering segment s ships segment s-1, which is then covered.
			if err := f.WriteAt(int64(s*segSize), want[s*segSize:(s+1)*segSize]); err != nil {
				return err
			}
			if got := f.Stats().EagerDrains; got != int64(s) {
				return fmt.Errorf("after segment %d: %d eager drains, want %d", s, got, s)
			}
			if n := len(f.wbOutstanding); n > writeBehindQueue {
				return fmt.Errorf("after segment %d: %d drains in flight, bound %d", s, n, writeBehindQueue)
			} else if n > peak {
				peak = n
			}
		}
		if peak != writeBehindQueue {
			return fmt.Errorf("peak in-flight drains %d, want the full queue %d", peak, writeBehindQueue)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if st := f.Stats(); st.EagerDrains != segs || st.FlushResidue != 0 || st.EagerWrites+st.FlushResidue != st.FSWrites {
			return fmt.Errorf("eager drains %d, residue %d, fs writes %d: want %d eager drains, one request each",
				st.EagerDrains, st.FlushResidue, st.FSWrites, segs)
		}
		if got := c.FS().Open("wb-backpressure").Snapshot(); !bytes.Equal(got, want) {
			return fmt.Errorf("file image differs after backpressured drains")
		}
		return nil
	})
}

// TestWriteBehindGappedAccounting drives a fractional threshold where each
// eager batch holds two runs separated by a gap, so one EagerDrain issues
// two file system requests: the per-request EagerWrites counter — not the
// batch count — is what balances against FSWrites.
func TestWriteBehindGappedAccounting(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, threshold float64) (Stats, error) {
		cfg := smallCfg() // 64-byte segments: threshold 0.5 needs 32 bytes
		cfg.WriteBehindThreshold = threshold
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return Stats{}, err
		}
		// Ranks 0 and 2 cover half of every segment with a gap between
		// their runs: bytes [0,16) and [32,48).
		if c.Rank()%2 == 0 {
			for seg := int64(0); seg < 64; seg++ {
				var block [16]byte
				for b := range block {
					block[b] = byte(int64(c.Rank())*31 + seg + int64(b))
				}
				if err := f.WriteAt(seg*64+int64(c.Rank())*16, block[:]); err != nil {
					return Stats{}, err
				}
			}
		}
		if err := f.Flush(); err != nil {
			return Stats{}, err
		}
		// Every rank then ships one byte into its own segment 60+r (into
		// the [48,64) gap), so each rank's write-behind scan provably runs
		// after all the gapped runs above are recorded: every half-covered
		// segment eager-drains.
		if err := f.WriteAt((60+int64(c.Rank()))*64+48, []byte{7}); err != nil {
			return Stats{}, err
		}
		if err := f.Close(); err != nil {
			return Stats{}, err
		}
		return f.Stats(), nil
	}
	run(t, procs, func(c *mpi.Comm) error {
		if _, err := write(c, "wbg-sync", 0); err != nil {
			return err
		}
		eager, err := write(c, "wbg-eager", 0.5)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			a := c.FS().Open("wbg-sync").Snapshot()
			b := c.FS().Open("wbg-eager").Snapshot()
			if !bytes.Equal(a, b) {
				return fmt.Errorf("gapped write-behind changed file bytes (%d vs %d)", len(a), len(b))
			}
		}
		// Each rank owns 16 segments, every one half-covered by two gapped
		// runs: 16 eager batches of 2 requests each. The books must balance
		// on requests; the batch count deliberately does not.
		if eager.EagerDrains != 16 || eager.EagerWrites != 32 {
			return fmt.Errorf("eager drains %d (want 16), eager writes %d (want 32)",
				eager.EagerDrains, eager.EagerWrites)
		}
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		return nil
	})
}

// TestWriteBehindRewriteRace is the -race regression for rewrite traffic
// racing the eager drain: with a low threshold every shipped run can drain
// immediately, while a second pass of writes keeps physically copying into
// the same window regions the drains are snapshotting. Last bytes must win.
func TestWriteBehindRewriteRace(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		cfg := smallCfg()
		cfg.WriteBehindThreshold = 0.25 // each 16-byte run triggers a drain
		f, err := Open(c, "wb-rewrite", WriteMode, cfg)
		if err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 64; i++ {
				off := int64(i)*16*procs + int64(c.Rank())*16
				var block [16]byte
				for b := range block {
					block[b] = byte(pass*101 + c.Rank()*31 + i + b)
				}
				if err := f.WriteAt(off, block[:]); err != nil {
					return err
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := c.FS().Open("wb-rewrite").Snapshot()
			for i := 0; i < 64; i++ {
				for r := 0; r < procs; r++ {
					off := int64(i)*16*procs + int64(r)*16
					for b := 0; b < 16; b++ {
						want := byte(101 + r*31 + i + b) // pass-2 values
						if got[off+int64(b)] != want {
							return fmt.Errorf("byte %d: got %d, want %d (rewrite lost)",
								off+int64(b), got[off+int64(b)], want)
						}
					}
				}
			}
		}
		return nil
	})
}

// TestL2MetaConcurrent hammers one l2meta from many goroutines — the shared
// state the write-behind scan reads while remote ships record runs. Run
// under -race this is the regression test for the pending/dirty bookkeeping.
func TestL2MetaConcurrent(t *testing.T) {
	m := newL2Meta(false)
	const (
		workers  = 8
		segs     = 16
		segSize  = 64
		perChunk = segSize / workers
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := int64(0); s < segs; s++ {
				m.addDirty(s, []extent.Extent{{Off: int64(w * perChunk), Len: perChunk}}, simtime.Time(w+1))
				_ = m.dirtyRuns(s)
				_ = m.hasPending(s)
				if runs, at := m.takeCovered(s, segSize); len(runs) != 0 {
					// Full coverage observed: put the runs back the way a
					// drain error path would not — re-add so others see them.
					m.addDirty(s, runs, at)
				}
				m.setPopulated(s, 0)
				_ = m.isPopulated(s)
			}
		}(w)
	}
	wg.Wait()
	for s := int64(0); s < segs; s++ {
		if got := extent.Total(m.dirtyRuns(s)); got != segSize {
			t.Fatalf("segment %d: dirty total %d, want %d", s, got, segSize)
		}
		if !m.isPopulated(s) {
			t.Fatalf("segment %d lost populated flag", s)
		}
	}
}

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
