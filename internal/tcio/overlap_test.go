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

// TestWriteBehindBytesIdentical writes the same interleaved data twice —
// synchronously and with the eager write-behind armed — and requires
// byte-identical files and an identical file system write request count.
func TestWriteBehindBytesIdentical(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, writeBehind bool) (Stats, error) {
		cfg := smallCfg()
		cfg.WriteBehind = writeBehind
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
		sync0, err := write(c, "wb-sync", false)
		if err != nil {
			return err
		}
		eager, err := write(c, "wb-eager", true)
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
			return fmt.Errorf("write-behind off ran %d eager drains", sync0.EagerDrains)
		}
		// Accounting must balance: every file system write request is
		// either an eager batch's or the final residue's. (EagerDrains
		// counts batches, not requests — a covered segment coalesces to one
		// request per batch, so both identities hold here.)
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		if eager.EagerWrites != eager.EagerDrains {
			return fmt.Errorf("eager writes %d != eager drains %d (covered segments must coalesce)",
				eager.EagerWrites, eager.EagerDrains)
		}
		return nil
	})
}

// TestWriteBehindBackpressure fills the eager drain queue: one rank covers
// more segments than writeBehindQueue, so every drain past the bound waits
// for the earliest in-flight batch first, and the queue never holds more
// than writeBehindQueue batches.
func TestWriteBehindBackpressure(t *testing.T) {
	const segs, segSize = writeBehindQueue + 16, 64
	run(t, 1, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: segSize, NumSegments: segs, WriteBehind: true}
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
		// Only backpressure waits before Close, so the rank has paid for one.
		if f.wbWaited <= 0 {
			return fmt.Errorf("%d drains through a queue of %d never waited", segs, writeBehindQueue)
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

// TestWriteBehindGappedAccounting mixes eager batches with a gapped
// residue: every segment is half covered by two runs separated by a gap,
// and half of each rank's segments then get their gaps filled. A covered
// segment drains early as one request; a gapped one never does, and drains
// at Close as two requests — so the per-request EagerWrites and
// FlushResidue counters, not the batch count, balance against FSWrites.
func TestWriteBehindGappedAccounting(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, writeBehind bool) (Stats, error) {
		cfg := smallCfg() // 64-byte segments, rank r owns segments 4k+r
		cfg.WriteBehind = writeBehind
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return Stats{}, err
		}
		// Ranks 0 and 2 write bytes [0,16) and [32,48) of every segment;
		// ranks 1 and 3 fill the gaps [16,32) and [48,64) only where
		// seg%8 < 4 — half of every owner's segments.
		for seg := int64(0); seg < 64; seg++ {
			if c.Rank()%2 == 1 && seg%8 >= 4 {
				continue
			}
			var block [16]byte
			for b := range block {
				block[b] = byte(int64(c.Rank())*31 + seg + int64(b))
			}
			if err := f.WriteAt(seg*64+int64(c.Rank())*16, block[:]); err != nil {
				return Stats{}, err
			}
		}
		if err := f.Flush(); err != nil {
			return Stats{}, err
		}
		// Every rank then ships one byte into the [48,64) gap of its own
		// segment 60+r, which stays gapped, so each rank's write-behind scan
		// provably runs after all the runs above are recorded: every covered
		// segment has eager-drained by Close's final drain.
		if err := f.WriteAt((60+int64(c.Rank()))*64+48, []byte{7}); err != nil {
			return Stats{}, err
		}
		if err := f.Close(); err != nil {
			return Stats{}, err
		}
		return f.Stats(), nil
	}
	run(t, procs, func(c *mpi.Comm) error {
		if _, err := write(c, "wbg-sync", false); err != nil {
			return err
		}
		eager, err := write(c, "wbg-eager", true)
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
		// Each rank owns 16 segments: 8 covered ones drain early, one
		// request each, and 8 gapped ones are left for Close, two requests
		// each. The books must balance on requests.
		if eager.EagerDrains != 8 || eager.EagerWrites != 8 || eager.FlushResidue != 16 {
			return fmt.Errorf("eager drains %d (want 8), eager writes %d (want 8), residue %d (want 16)",
				eager.EagerDrains, eager.EagerWrites, eager.FlushResidue)
		}
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		return nil
	})
}

// TestWriteBehindRewriteRace is the -race regression for rewrite traffic
// racing the eager drain: every segment drains as soon as the four ranks'
// runs cover it, while a second pass of writes keeps physically copying
// into the same window regions the drains are snapshotting. Last bytes
// must win.
func TestWriteBehindRewriteRace(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		cfg := smallCfg()
		cfg.WriteBehind = true // the fourth 16-byte run triggers a drain
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
// under -race this is the regression test for the pending/written bookkeeping.
func TestL2MetaConcurrent(t *testing.T) {
	const (
		workers  = 8
		segs     = 16
		segSize  = 64
		perChunk = segSize / workers
	)
	m := newL2Meta(segs, false)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := int64(0); s < segs; s++ {
				m.addDirty(s, []extent.Extent{{Off: int64(w * perChunk), Len: perChunk}}, simtime.Time(w+1))
				_ = m.isWritten(s)
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
		// Every taken run was put back, so pending still covers every
		// worker's chunk: the runs the drain would write.
		if runs, _ := m.takePending(s); extent.Total(runs) != segSize {
			t.Fatalf("segment %d: pending total %d, want %d", s, extent.Total(runs), segSize)
		}
		if !m.isWritten(s) {
			t.Fatalf("segment %d lost written flag", s)
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
