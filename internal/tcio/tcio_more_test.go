package tcio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		bad := []Config{
			{SegmentSize: -1},
			{SegmentSize: 64, NumSegments: -2},
			{SegmentSize: 64, NumSegments: 4, FetchBatch: -1},
			{SegmentSize: 64, NumSegments: 4, PipelineDepth: -3},
		}
		for i, cfg := range bad {
			if _, err := Open(c, fmt.Sprintf("bad%d", i), WriteMode, cfg); err == nil {
				return fmt.Errorf("config %d accepted: %+v", i, cfg)
			}
		}
		return nil
	})
}

func TestDefaultsFromFileSystem(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "defaults", WriteMode, Config{})
		if err != nil {
			return err
		}
		defer f.Close()
		stripe := c.FS().Config().StripeSize
		if f.layout.SegSize != stripe {
			return fmt.Errorf("segment size %d, want stripe %d", f.layout.SegSize, stripe)
		}
		if f.layout.NumSeg != 64 || f.cfg.FetchBatch != 64 || f.cfg.PipelineDepth != 8 {
			return fmt.Errorf("defaults = %d/%d/%d", f.layout.NumSeg, f.cfg.FetchBatch, f.cfg.PipelineDepth)
		}
		if f.Capacity() != stripe*64 {
			return fmt.Errorf("Capacity = %d", f.Capacity())
		}
		return nil
	})
}

func TestPipelineDepthBoundsOpenEpochs(t *testing.T) {
	const procs = 8
	run(t, procs, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: 16, NumSegments: 64, PipelineDepth: 3}
		f, err := Open(c, "pipe", WriteMode, cfg)
		if err != nil {
			return err
		}
		// Touch many segments owned by distinct ranks.
		for s := 0; s < 32; s++ {
			off := int64(s)*16*int64(procs) + int64(c.Rank())*16
			if err := f.WriteAt(off, []byte{1, 2}); err != nil {
				return err
			}
			if got := len(f.openOwners); got > 3 {
				return fmt.Errorf("after segment %d: %d open epochs, cap 3", s, got)
			}
		}
		return f.Close()
	})
}

func TestEmulateTwoSidedShiftsTraffic(t *testing.T) {
	stats := func(twoSided bool) int64 {
		var twoMsgs int64
		rep, err := mpi.Run(mpi.Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
			cfg := smallCfg()
			cfg.EmulateTwoSided = twoSided
			f, err := Open(c, fmt.Sprintf("class%v", twoSided), WriteMode, cfg)
			if err != nil {
				return err
			}
			if err := f.WriteAt(int64(c.Rank())*64, make([]byte, 64)); err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		twoMsgs = rep.Net.TwoSidedMsgs
		return twoMsgs
	}
	base := stats(false)
	emu := stats(true)
	if emu <= base {
		t.Fatalf("EmulateTwoSided recorded %d two-sided msgs vs baseline %d", emu, base)
	}
}

func TestFetchBatchTriggersImplicitFetch(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		pf := c.FS().Open("batch")
		content := make([]byte, 1024)
		for i := range content {
			content[i] = byte(i)
		}
		if _, err := pf.WriteAt(0, 0, content, 0); err != nil {
			return err
		}
		cfg := Config{SegmentSize: 64, NumSegments: 16, FetchBatch: 4}
		f, err := Open(c, "batch", ReadMode, cfg)
		if err != nil {
			return err
		}
		dsts := make([][]byte, 8)
		for s := 0; s < 8; s++ { // spans 8 segments > batch of 4
			dsts[s] = make([]byte, 4)
			if err := f.ReadAt(int64(s*64), dsts[s]); err != nil {
				return err
			}
		}
		// Crossing the batch threshold must have fetched the early reads.
		if dsts[0][0] != 0 || dsts[0][1] != 1 {
			return errors.New("batch threshold did not trigger a fetch")
		}
		if err := f.Close(); err != nil {
			return err
		}
		for s := 0; s < 8; s++ {
			if dsts[s][0] != byte(s*64) {
				return fmt.Errorf("segment %d read wrong: %v", s, dsts[s])
			}
		}
		return nil
	})
}

func TestReadCapacityExceeded(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "rcap", ReadMode, Config{SegmentSize: 16, NumSegments: 2})
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.ReadAt(32, make([]byte, 1)); !errors.Is(err, ErrCapacity) {
			return fmt.Errorf("out-of-capacity read: %v", err)
		}
		return nil
	})
}

func TestWriteTypedPackError(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "typederr", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		defer f.Close()
		// Source shorter than count*extent must fail cleanly.
		if err := f.WriteTyped(make([]byte, 3), 2, datatype.Int); err == nil {
			return errors.New("short source accepted")
		}
		return nil
	})
}

func TestStatsAccounting(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "stats", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if err := f.Write(make([]byte, 8)); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		st := f.Stats()
		if st.Writes != 10 {
			return fmt.Errorf("Writes = %d", st.Writes)
		}
		if st.BytesWritten != 80 {
			return fmt.Errorf("BytesWritten = %d", st.BytesWritten)
		}
		if st.Level1Flush == 0 {
			return fmt.Errorf("no flushes recorded")
		}
		return nil
	})
}

func TestModeString(t *testing.T) {
	if WriteMode.String() != "write" || ReadMode.String() != "read" {
		t.Fatal("mode strings wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestTwoFilesIndependentSessions(t *testing.T) {
	// Two TCIO files open at once: level-2 windows and metadata must not
	// interfere.
	run(t, 2, func(c *mpi.Comm) error {
		fa, err := Open(c, "filea", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		fb, err := Open(c, "fileb", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := fa.WriteAt(0, []byte("AAAA")); err != nil {
				return err
			}
			if err := fb.WriteAt(0, []byte("BBBB")); err != nil {
				return err
			}
		}
		if err := fa.Close(); err != nil {
			return err
		}
		if err := fb.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			a := c.FS().Open("filea").Snapshot()
			b := c.FS().Open("fileb").Snapshot()
			if !bytes.Equal(a, []byte("AAAA")) || !bytes.Equal(b, []byte("BBBB")) {
				return fmt.Errorf("cross-talk: %q %q", a, b)
			}
		}
		return nil
	})
}

func TestWriteModeMemoryChargedAndFreed(t *testing.T) {
	m := cluster.Lonestar()
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, EnforceMemory: true}, func(c *mpi.Comm) error {
		before := c.MemUsed()
		f, err := Open(c, "memfree", WriteMode, Config{SegmentSize: 1 << 10, NumSegments: 4})
		if err != nil {
			return err
		}
		during := c.MemUsed()
		if during != before+4<<10+1<<10 {
			return fmt.Errorf("open charged %d bytes, want level-2 (4 KiB) + level-1 (1 KiB)", during-before)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if got := c.MemUsed(); got != before {
			return fmt.Errorf("Close leaked %d simulated bytes", got-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOneSidedPipelineOverlap(t *testing.T) {
	// A deep pipeline defers transfer completion to the epoch-retire wave;
	// a depth-1 pipeline (the paper's strictly synchronous flush) stalls in
	// the retire path on every flush. Compare the retire-stall time.
	retireStall := func(depth int) simtime.Duration {
		var stall simtime.Duration
		m := cluster.Lonestar()
		m.ByteScale = 1 << 12 // make wire time visible
		_, err := mpi.Run(mpi.Config{Procs: 4, Machine: m}, func(c *mpi.Comm) error {
			cfg := Config{SegmentSize: 16, NumSegments: 64, PipelineDepth: depth}
			f, err := Open(c, fmt.Sprintf("pipe%d", depth), WriteMode, cfg)
			if err != nil {
				return err
			}
			// A contiguous 1 KiB range per rank spans 64 segments whose
			// owners cycle through all ranks, so each flush opens a new
			// remote epoch.
			base := int64(c.Rank()) * 1024
			for s := 0; s < 64; s++ {
				if err := f.WriteAt(base+int64(s*16), make([]byte, 16)); err != nil {
					return err
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				stall = f.Stats().LockWait // includes waits to retire the oldest epoch
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stall
	}
	deep := retireStall(16)
	shallow := retireStall(1)
	if deep >= shallow {
		t.Fatalf("deep pipeline stalled %v, not less than synchronous %v", deep, shallow)
	}
}

func TestReadTypedRoundTrip(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		// File holds 6 ints packed; memory layout wants them padded to 8.
		wf, err := Open(c, "typedrt", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		packed := make([]byte, 24)
		for i := range packed {
			packed[i] = byte(i + 1)
		}
		if err := wf.WriteAt(0, packed); err != nil {
			return err
		}
		if err := wf.Close(); err != nil {
			return err
		}

		rf, err := Open(c, "typedrt", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		ty, err := datatype.Resized(datatype.Int, 8)
		if err != nil {
			return err
		}
		mem := make([]byte, 48)
		if err := rf.ReadTyped(mem, 6, ty); err != nil {
			return err
		}
		// Lazy: memory still zero before Fetch.
		if mem[0] != 0 {
			return errors.New("ReadTyped filled memory before Fetch")
		}
		if err := rf.Fetch(); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			for b := 0; b < 4; b++ {
				if mem[i*8+b] != byte(i*4+b+1) {
					return fmt.Errorf("element %d byte %d = %d", i, b, mem[i*8+b])
				}
			}
			if mem[i*8+4] != 0 {
				return fmt.Errorf("padding of element %d written", i)
			}
		}
		return rf.Close()
	})
}

func TestReadTypedShortDestination(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "typedshort", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.ReadTyped(make([]byte, 4), 2, datatype.Int); err == nil {
			return errors.New("short destination accepted")
		}
		return nil
	})
}

func TestTraceRecordsLibraryActivity(t *testing.T) {
	rec := trace.New(0)
	run(t, 2, func(c *mpi.Comm) error {
		cfg := smallCfg()
		cfg.Trace = rec
		f, err := Open(c, "traced", WriteMode, cfg)
		if err != nil {
			return err
		}
		if err := f.WriteAt(int64(c.Rank())*64, make([]byte, 64)); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}

		rf, err := Open(c, "traced", ReadMode, cfg)
		if err != nil {
			return err
		}
		dst := make([]byte, 16)
		if err := rf.ReadAt(int64(c.Rank())*64, dst); err != nil {
			return err
		}
		if err := rf.Fetch(); err != nil {
			return err
		}
		return rf.Close()
	})
	sum := rec.Summary()
	for _, kind := range []trace.Kind{trace.KindWrite, trace.KindRead, trace.KindFlush, trace.KindFetch, trace.KindDrain, trace.KindPopulate} {
		if sum[kind].Count == 0 {
			t.Fatalf("no %s events recorded; summary: %v", kind, sum)
		}
	}
}

// TestUntracedWriteDoesNotAllocate pins the per-call host cost with tracing
// off: a WriteAt that lands in the level-1 buffer builds no trace detail
// string, so it allocates nothing.
func TestUntracedWriteDoesNotAllocate(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: 4096, NumSegments: 4}
		f, err := Open(c, "noalloc", WriteMode, cfg)
		if err != nil {
			return err
		}
		piece := make([]byte, 8)
		write := func(seg int64) func() {
			i := int64(0)
			return func() {
				if err := f.WriteAt(seg*4096+8*(i%256), piece); err != nil {
					panic(err)
				}
				i++
			}
		}
		// Grow the level-1 block list on segment 1; moving to segment 2
		// flushes it, keeping its capacity.
		for w, i := write(1), 0; i < 256; i++ {
			w()
		}
		if a := testing.AllocsPerRun(200, write(2)); a != 0 {
			return fmt.Errorf("%v allocs per untraced WriteAt, want 0", a)
		}
		return f.Close()
	})
}
