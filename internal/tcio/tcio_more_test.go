package tcio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		bad := []Config{
			{SegmentSize: -1},
			{SegmentSize: 64, NumSegments: -2},
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
		if f.layout.NumSeg != 64 {
			return fmt.Errorf("default segment count = %d", f.layout.NumSeg)
		}
		if f.Capacity() != stripe*64 {
			return fmt.Errorf("Capacity = %d", f.Capacity())
		}
		return nil
	})
}

// TestPipelineDepthBoundsOpenEpochs: every rank ships to every owner in
// turn, one owner more than pipelineDepth, so the open epochs fill up to
// the bound and each later ship to a new owner evicts the coldest one.
func TestPipelineDepthBoundsOpenEpochs(t *testing.T) {
	const procs, segs = pipelineDepth + 2, 40
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "pipe", WriteMode, Config{SegmentSize: 16, NumSegments: 64})
		if err != nil {
			return err
		}
		// Segment s is owned by rank s%procs; each rank writes its own byte
		// of every segment, and each write ships the segment before it.
		for s := 0; s < segs; s++ {
			if err := f.WriteAt(int64(s*16+c.Rank()), []byte{byte(s + c.Rank() + 1)}); err != nil {
				return err
			}
			if got, want := len(f.openOwners), min(s, pipelineDepth); got != want {
				return fmt.Errorf("after segment %d: %d open epochs, want %d", s, got, want)
			}
		}
		if got, want := f.Stats().EpochEvictions, int64(segs-1-pipelineDepth); got != want {
			return fmt.Errorf("EpochEvictions = %d, want %d", got, want)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := make([]byte, (segs-1)*16+procs)
			for s := 0; s < segs; s++ {
				for r := 0; r < procs; r++ {
					want[s*16+r] = byte(s + r + 1)
				}
			}
			if got := c.FS().Open("pipe").Snapshot(); !bytes.Equal(got, want) {
				return fmt.Errorf("file image differs:\n got %v\nwant %v", got, want)
			}
		}
		return nil
	})
}

// TestFetchBatchTriggersImplicitFetch: forward reads over fetchBatch+1
// distinct segments fetch the first fetchBatch of them implicitly, on the
// read that lands in the last one.
func TestFetchBatchTriggersImplicitFetch(t *testing.T) {
	const segs = fetchBatch + 1
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "batch", segs*64); err != nil {
			return err
		}
		f, err := Open(c, "batch", ReadMode, Config{SegmentSize: 64, NumSegments: segs})
		if err != nil {
			return err
		}
		dsts := make([][]byte, segs)
		for s := range dsts {
			dsts[s] = make([]byte, 4)
			if err := f.ReadAt(int64(s*64), dsts[s]); err != nil {
				return err
			}
			want := int64(0)
			if s == fetchBatch {
				want = fetchBatch
			}
			if got := f.Stats().Gets; got != want {
				return fmt.Errorf("after read %d: %d gets, want %d", s+1, got, want)
			}
		}
		// Crossing the batch threshold must have fetched the early reads.
		if !bytes.Equal(dsts[0], []byte{wantReadByte(0), wantReadByte(1), wantReadByte(2), wantReadByte(3)}) {
			return fmt.Errorf("batch threshold did not trigger a fetch: %v", dsts[0])
		}
		if err := f.Close(); err != nil {
			return err
		}
		for s, dst := range dsts {
			for i, b := range dst {
				if off := int64(s*64 + i); b != wantReadByte(off) {
					return fmt.Errorf("segment %d byte %d = %d, want %d", s, i, b, wantReadByte(off))
				}
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

// TestNegativeCountRejected: a negative element count is an error from
// every typed entry point, never a makeslice panic.
func TestNegativeCountRejected(t *testing.T) {
	empty, err := datatype.Contiguous(0, datatype.Int) // no bytes: any count "fits"
	if err != nil {
		t.Fatal(err)
	}
	run(t, 1, func(c *mpi.Comm) error {
		w, err := Open(c, "negcount-w", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		defer w.Close()
		r, err := Open(c, "negcount-r", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		defer r.Close()
		mem := make([]byte, 64)
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"Pack", func() error { _, err := datatype.Pack(mem, datatype.Int, -1); return err }},
			{"Unpack", func() error { return datatype.Unpack(nil, mem, empty, -1) }},
			{"WriteTyped", func() error { return w.WriteTyped(mem, -1, datatype.Int) }},
			{"ReadTyped", func() error { return r.ReadTyped(mem, -1, datatype.Int) }},
		} {
			if err := recovered(tc.call); err == nil {
				t.Errorf("%s accepted a count of -1", tc.name)
			} else if msg := err.Error(); strings.HasPrefix(msg, "panic") {
				t.Errorf("%s: %s", tc.name, msg)
			}
		}
		return nil
	})
}

// recovered runs call and turns a panic into an error that says so.
func recovered(call func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return call()
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

// TestSplitCallPaysOnePieceCharge: a scaled run stands for ByteScale times
// as many application calls, not as many segment boundaries. A WriteAt and a
// ReadAt that straddle a segment boundary each pay the scaled piece charge
// for their first piece and the unscaled one for the second. The write's
// only other cost is the put that ships its first piece when the second
// realigns the level-1 buffer (Stats.LockWait + PutIssue).
func TestSplitCallPaysOnePieceCharge(t *testing.T) {
	const scale = 1024
	m := cluster.Lonestar()
	m.ByteScale = scale
	cfg := Config{SegmentSize: 64, NumSegments: 4}
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: m}, func(c *mpi.Comm) error {
		w, err := Open(c, "split", WriteMode, cfg)
		if err != nil {
			return err
		}
		before := c.Now()
		if err := w.WriteAt(60, make([]byte, 8)); err != nil {
			return err
		}
		st := w.Stats()
		if got, want := c.Now().Sub(before), 150*(scale+1)+st.LockWait+st.PutIssue; got != want {
			return fmt.Errorf("straddling WriteAt cost %d, want 150 ns × (%d + 1) + the first piece's put %d", got, scale, st.LockWait+st.PutIssue)
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := Open(c, "split", ReadMode, cfg)
		if err != nil {
			return err
		}
		before = c.Now()
		if err := r.ReadAt(60, make([]byte, 8)); err != nil {
			return err
		}
		if got, want := c.Now().Sub(before), simtime.Duration(60*(scale+1)); got != want {
			return fmt.Errorf("straddling ReadAt cost %d, want 60 ns × (%d + 1)", got, scale)
		}
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseFailurePassesTheTurn: Close's drains run one rank at a time in
// clock order, and a rank whose Close fails must still pass the turn on —
// whether it reached the drain already holding an error or its own drain
// failed in its turn. Four ranks close under a deadline: every rank returns,
// the failing rank with its own error and the others with none.
func TestCloseFailurePassesTheTurn(t *testing.T) {
	const procs, bad = 4, 2
	for _, tc := range []struct {
		name  string
		plant func(f *File) error // on rank bad, after the last Flush
		check func(err error) bool
	}{
		{
			// An epoch closed behind the handle's back makes Close's own
			// closeEpochs fail before the drain.
			name: "error before the drain",
			plant: func(f *File) error {
				if err := f.flushLevel1(); err != nil {
					return err
				}
				return f.win.Unlock(f.openOwners[0])
			},
			check: func(err error) bool { return err != nil && strings.Contains(err.Error(), "not locked") },
		},
		{
			// Two overlapping pending runs in one of the rank's own segments
			// make its drain batch fail in its turn, before anything is issued.
			name: "drain fails in its turn",
			plant: func(f *File) error {
				st := f.meta.lock(f.layout.RankSegment(bad, 0))
				st.pending = append(st.pending, extent.Extent{Off: 0, Len: 8}, extent.Extent{Off: 4, Len: 8})
				st.mu.Unlock()
				return nil
			},
			check: func(err error) bool { return errors.Is(err, storage.ErrOverlappingBatch) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, procs)
			done := make(chan error, 1)
			go func() {
				_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
					cfg := smallCfg()
					f, err := Open(c, "close-fail", WriteMode, cfg)
					if err != nil {
						return err
					}
					// Each rank writes its own block of every rank's first
					// segment, then a block of the next segment it leaves
					// in level 1 for Close; clocks descend with the rank.
					for seg := int64(0); seg < procs; seg++ {
						if err := f.WriteAt(seg*cfg.SegmentSize+int64(c.Rank())*8, bytes.Repeat([]byte{byte(c.Rank() + 1)}, 8)); err != nil {
							return err
						}
					}
					if err := f.Flush(); err != nil {
						return err
					}
					c.Compute(simtime.Duration(procs-c.Rank()) * simtime.Microsecond)
					if err := f.WriteAt(int64(procs+(c.Rank()+1)%procs)*cfg.SegmentSize+int64(c.Rank())*8, []byte{1}); err != nil {
						return err
					}
					if c.Rank() == bad {
						if err := tc.plant(f); err != nil {
							return err
						}
					}
					errs[c.Rank()] = f.Close()
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Minute):
				t.Fatal("a rank was still in Close after a minute")
			}
			for r, err := range errs {
				if r == bad && !tc.check(err) {
					t.Errorf("failing rank %d: Close returned %v", r, err)
				}
				if r != bad && err != nil {
					t.Errorf("rank %d: Close returned %v, want nil", r, err)
				}
			}
		})
	}
}
