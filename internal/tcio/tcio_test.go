package tcio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
)

func run(t *testing.T, procs int, fn func(*mpi.Comm) error) mpi.Report {
	t.Helper()
	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// smallCfg uses tiny segments so tests exercise alignment and flushing.
func smallCfg() Config {
	return Config{SegmentSize: 64, NumSegments: 16}
}

func TestLocateEquations(t *testing.T) {
	// Verify equations (1)-(3) directly against the paper's definitions.
	run(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, "eq", WriteMode, Config{SegmentSize: 100, NumSegments: 8})
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() != 0 {
			return nil
		}
		cases := []struct {
			off        int64
			rank       int
			slot, disp int64
		}{
			{0, 0, 0, 0},
			{99, 0, 0, 99},
			{100, 1, 0, 0},
			{399, 3, 0, 99},
			{400, 0, 1, 0},
			{1234, 0, 3, 34}, // seg 12: 12%4=0, 12/4=3
		}
		for _, tc := range cases {
			r, s, d := f.layout.Locate(tc.off)
			if r != tc.rank || s != tc.slot || d != tc.disp {
				return fmt.Errorf("locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
					tc.off, r, s, d, tc.rank, tc.slot, tc.disp)
			}
		}
		return nil
	})
}

func TestLocateBijectionProperty(t *testing.T) {
	// Equations (1)-(3) must be a bijection: offset -> (rank, slot, disp)
	// and back. Checked over a dense range.
	run(t, 3, func(c *mpi.Comm) error {
		f, err := Open(c, "bij", WriteMode, Config{SegmentSize: 7, NumSegments: 50})
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() != 0 {
			return nil
		}
		for off := int64(0); off < 1000; off++ {
			r, s, d := f.layout.Locate(off)
			back := (s*int64(c.Size())+int64(r))*f.layout.SegSize + d
			if back != off {
				return fmt.Errorf("offset %d -> (%d,%d,%d) -> %d", off, r, s, d, back)
			}
		}
		return nil
	})
}

// interleavedReference builds the expected file for the paper's Fig. 2/4
// pattern: P processes, `pairs` (int,double) pairs each, round-robin.
func interleavedReference(procs, pairs int) []byte {
	out := make([]byte, procs*pairs*12)
	for p := 0; p < procs; p++ {
		for i := 0; i < pairs; i++ {
			off := (i*procs + p) * 12
			binary.LittleEndian.PutUint32(out[off:], uint32(p*1000+i))
			binary.LittleEndian.PutUint64(out[off+4:], uint64(p*7000+i))
		}
	}
	return out
}

// writeInterleaved performs the Program 3 loop on one rank.
func writeInterleaved(c *mpi.Comm, f *File, pairs int) error {
	const blockSize = 12
	for i := 0; i < pairs; i++ {
		pos := int64(c.Rank()*blockSize + i*blockSize*c.Size())
		var intBuf [4]byte
		binary.LittleEndian.PutUint32(intBuf[:], uint32(c.Rank()*1000+i))
		if err := f.WriteAt(pos, intBuf[:]); err != nil {
			return err
		}
		var dblBuf [8]byte
		binary.LittleEndian.PutUint64(dblBuf[:], uint64(c.Rank()*7000+i))
		if err := f.WriteAt(pos+4, dblBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

func TestProgram3WritePattern(t *testing.T) {
	const procs, pairs = 2, 16
	var snapshot []byte
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "prog3", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if err := writeInterleaved(c, f, pairs); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snapshot = c.FS().Open("prog3").Snapshot()
		}
		return nil
	})
	if !bytes.Equal(snapshot, interleavedReference(procs, pairs)) {
		t.Fatalf("TCIO file does not match reference:\n got %v\nwant %v",
			snapshot[:48], interleavedReference(procs, pairs)[:48])
	}
}

func TestWriteThenLazyReadRoundTrip(t *testing.T) {
	const procs, pairs = 4, 32
	run(t, procs, func(c *mpi.Comm) error {
		wf, err := Open(c, "rt", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if err := writeInterleaved(c, wf, pairs); err != nil {
			return err
		}
		if err := wf.Close(); err != nil {
			return err
		}

		rf, err := Open(c, "rt", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		const blockSize = 12
		dsts := make([][]byte, pairs)
		for i := 0; i < pairs; i++ {
			pos := int64(c.Rank()*blockSize + i*blockSize*c.Size())
			dsts[i] = make([]byte, blockSize)
			if err := rf.ReadAt(pos, dsts[i]); err != nil {
				return err
			}
		}
		if err := rf.Fetch(); err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			iv := binary.LittleEndian.Uint32(dsts[i][:4])
			dv := binary.LittleEndian.Uint64(dsts[i][4:])
			if iv != uint32(c.Rank()*1000+i) || dv != uint64(c.Rank()*7000+i) {
				return fmt.Errorf("rank %d pair %d = (%d,%d)", c.Rank(), i, iv, dv)
			}
		}
		return rf.Close()
	})
}

func TestLazyReadNotFilledBeforeFetch(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		pf := c.FS().Open("lazy")
		if _, err := pf.WriteAt(0, 0, bytes.Repeat([]byte{0xAB}, 64), 0); err != nil {
			return err
		}
		f, err := Open(c, "lazy", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		dst := make([]byte, 8)
		if err := f.ReadAt(0, dst); err != nil {
			return err
		}
		// Lazy contract: nothing has been loaded yet.
		if dst[0] != 0 {
			return errors.New("ReadAt filled destination before Fetch")
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		if dst[0] != 0xAB {
			return fmt.Errorf("after Fetch dst[0] = %x", dst[0])
		}
		return f.Close()
	})
}

// TestReadRealignmentTriggersFetch: the fetchBatch+1-th segment switch can
// fall inside one ReadAt. A read straddling a segment boundary then fetches
// everything queued before it — its own first piece included — and queues
// only its second piece.
func TestReadRealignmentTriggersFetch(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "realign", 256); err != nil {
			return err
		}
		f, err := Open(c, "realign", ReadMode, smallCfg()) // 64-byte segments
		if err != nil {
			return err
		}
		// fetchBatch reads alternating between segments 0 and 1: as many
		// switches as the batch holds, the last read in segment 1.
		at := func(i int) int64 { return int64(i%2)*64 + int64(i/2%30*2) }
		a := make([][]byte, fetchBatch)
		for i := range a {
			a[i] = make([]byte, 2)
			if err := f.ReadAt(at(i), a[i]); err != nil {
				return err
			}
		}
		if f.Stats().Gets != 0 {
			return fmt.Errorf("%d gets before the batch overflowed", f.Stats().Gets)
		}
		// b covers bytes 124..131: its second piece is the next switch.
		b := make([]byte, 8)
		if err := f.ReadAt(124, b); err != nil {
			return err
		}
		if f.Stats().Gets != 2 {
			return fmt.Errorf("%d gets after the straddling read, want 2", f.Stats().Gets)
		}
		for i := range b {
			want := wantReadByte(124 + int64(i))
			if i >= 4 {
				want = 0 // the second piece waits in the queue
			}
			if b[i] != want {
				return fmt.Errorf("b before Fetch = %v", b)
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		for i := range b {
			if b[i] != wantReadByte(124+int64(i)) {
				return fmt.Errorf("b = %v", b)
			}
		}
		for i, dst := range a {
			if off := at(i); dst[0] != wantReadByte(off) || dst[1] != wantReadByte(off+1) {
				return fmt.Errorf("read %d = %v", i+1, dst)
			}
		}
		return nil
	})
}

func TestCloseCompletesPendingReads(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		pf := c.FS().Open("closefetch")
		if _, err := pf.WriteAt(0, 0, []byte{1, 2, 3, 4}, 0); err != nil {
			return err
		}
		f, err := Open(c, "closefetch", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		dst := make([]byte, 4)
		if err := f.ReadAt(0, dst); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
			return fmt.Errorf("Close did not complete pending reads: %v", dst)
		}
		return nil
	})
}

func TestModeEnforcement(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		wf, err := Open(c, "mode", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if err := wf.ReadAt(0, make([]byte, 1)); !errors.Is(err, ErrMode) {
			return fmt.Errorf("read on write handle: %v", err)
		}
		if err := wf.Close(); err != nil {
			return err
		}
		rf, err := Open(c, "mode", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		if err := rf.WriteAt(0, []byte{1}); !errors.Is(err, ErrMode) {
			return fmt.Errorf("write on read handle: %v", err)
		}
		return rf.Close()
	})
}

func TestClosedHandleRejected(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "closed", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte{1}); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("write after close: %v", err)
		}
		if err := f.Flush(); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("flush after close: %v", err)
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("double close: %v", err)
		}
		return nil
	})
}

func TestCapacityExceeded(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "cap", WriteMode, Config{SegmentSize: 16, NumSegments: 2})
		if err != nil {
			return err
		}
		defer f.Close()
		// Capacity = 1 rank * 2 slots * 16 = 32 bytes.
		if err := f.WriteAt(31, []byte{1}); err != nil {
			return fmt.Errorf("in-capacity write failed: %v", err)
		}
		if err := f.WriteAt(32, []byte{1}); !errors.Is(err, ErrCapacity) {
			return fmt.Errorf("out-of-capacity write: %v", err)
		}
		return nil
	})
}

func TestInvalidArgs(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if _, err := Open(c, "x", Mode(9), smallCfg()); err == nil {
			return errors.New("bad mode accepted")
		}
		f, err := Open(c, "x", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.WriteAt(-1, []byte{1}); err == nil {
			return errors.New("negative offset accepted")
		}
		if _, err := f.Seek(-5, 0); err == nil {
			return errors.New("negative seek accepted")
		}
		if _, err := f.Seek(0, 2); err == nil {
			return errors.New("whence=2 accepted")
		}
		return nil
	})
}

func TestSeekModes(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "seek", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		defer f.Close()
		if pos, err := f.Seek(10, 0); err != nil || pos != 10 {
			return fmt.Errorf("Seek(10,0) = %d, %v", pos, err)
		}
		if pos, err := f.Seek(5, 1); err != nil || pos != 15 {
			return fmt.Errorf("Seek(5,1) = %d, %v", pos, err)
		}
		return nil
	})
}

func TestLevel1Coalescing(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "coalesce", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		// 16 sequential 4-byte writes inside one 64-byte segment: exactly
		// one level-1 flush when the next segment is touched.
		for i := 0; i < 16; i++ {
			if err := f.Write(bytes.Repeat([]byte{byte(i)}, 4)); err != nil {
				return err
			}
		}
		if got := f.Stats().Level1Flush; got != 0 {
			return fmt.Errorf("flushes before boundary: %d", got)
		}
		if err := f.Write([]byte{99}); err != nil { // crosses into segment 1
			return err
		}
		if got := f.Stats().Level1Flush; got != 1 {
			return fmt.Errorf("flushes after boundary: %d, want 1", got)
		}
		return f.Close()
	})
}

func TestDisableLevel1AblationSameBytesMoreMessages(t *testing.T) {
	const procs, pairs = 2, 8
	for _, disable := range []bool{false, true} {
		name := fmt.Sprintf("abl%v", disable)
		var snapshot []byte
		var flushes int64
		run(t, procs, func(c *mpi.Comm) error {
			cfg := smallCfg()
			cfg.DisableLevel1 = disable
			f, err := Open(c, name, WriteMode, cfg)
			if err != nil {
				return err
			}
			if err := writeInterleaved(c, f, pairs); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				snapshot = c.FS().Open(name).Snapshot()
				flushes = f.Stats().Level1Flush
			}
			return nil
		})
		if !bytes.Equal(snapshot, interleavedReference(procs, pairs)) {
			t.Fatalf("disable=%v: wrong contents", disable)
		}
		if disable && flushes < int64(pairs*2) {
			t.Fatalf("disable=true: %d one-sided ops, want at least one per piece (%d)", flushes, pairs*2)
		}
		if !disable && flushes >= int64(pairs*2) {
			t.Fatalf("disable=false: %d one-sided ops, expected coalescing", flushes)
		}
	}
}

func TestDemandPopulateAblation(t *testing.T) {
	const procs = 2
	for _, demand := range []bool{false, true} {
		name := fmt.Sprintf("pop%v", demand)
		run(t, procs, func(c *mpi.Comm) error {
			pf := c.FS().Open(name)
			if c.Rank() == 0 {
				content := make([]byte, 512)
				for i := range content {
					content[i] = byte(i * 3)
				}
				if _, err := pf.WriteAt(0, 0, content, 0); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			cfg := smallCfg()
			cfg.DemandPopulate = demand
			f, err := Open(c, name, ReadMode, cfg)
			if err != nil {
				return err
			}
			if !demand && f.Stats().Populations == 0 {
				return errors.New("open did not populate owner segments")
			}
			if demand && f.Stats().Populations != 0 {
				return errors.New("demand mode populated at open")
			}
			dst := make([]byte, 16)
			if err := f.ReadAt(int64(c.Rank())*256, dst); err != nil {
				return err
			}
			if err := f.Fetch(); err != nil {
				return err
			}
			for i := range dst {
				want := byte((c.Rank()*256 + i) * 3)
				if dst[i] != want {
					return fmt.Errorf("dst[%d] = %d, want %d", i, dst[i], want)
				}
			}
			return f.Close()
		})
	}
}

func TestWriteTyped(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "typed", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		// Memory holds int32 values with 4 bytes of padding each; write
		// only the values.
		ty, err := datatype.Resized(datatype.Int, 8)
		if err != nil {
			return err
		}
		mem := make([]byte, 24)
		for i := 0; i < 3; i++ {
			binary.LittleEndian.PutUint32(mem[i*8:], uint32(100+i))
		}
		if err := f.WriteTyped(mem, 3, ty); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		snap := c.FS().Open("typed").Snapshot()
		for i := 0; i < 3; i++ {
			if got := binary.LittleEndian.Uint32(snap[i*4:]); got != uint32(100+i) {
				return fmt.Errorf("value %d = %d", i, got)
			}
		}
		return nil
	})
}

func TestSegmentSpanningWrite(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "span", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// 200 bytes spanning 4 segments (64 each) owned alternately.
			data := make([]byte, 200)
			for i := range data {
				data[i] = byte(i + 1)
			}
			if err := f.WriteAt(10, data); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.FS().Open("span").Snapshot()
			for i := 0; i < 200; i++ {
				if snap[10+i] != byte(i+1) {
					return fmt.Errorf("byte %d = %d", i, snap[10+i])
				}
			}
		}
		return nil
	})
}

func TestOverlappingRewrites(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "overlap", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte{1, 1, 1, 1}); err != nil {
			return err
		}
		if err := f.WriteAt(2, []byte{2, 2, 2, 2}); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		snap := c.FS().Open("overlap").Snapshot()
		want := []byte{1, 1, 2, 2, 2, 2}
		if !bytes.Equal(snap, want) {
			return fmt.Errorf("snap = %v, want %v", snap, want)
		}
		return nil
	})
}

func TestFlushIsCollective(t *testing.T) {
	rep := run(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, "coll", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			c.Compute(2_000_000)
		}
		if err := f.Flush(); err != nil {
			return err
		}
		return f.Close()
	})
	for r, rt := range rep.RankTimes {
		if rt < 2_000_000 {
			t.Fatalf("rank %d finished at %v, before the straggler's flush", r, rt)
		}
	}
}

func TestDrainProducesAlignedLargeWrites(t *testing.T) {
	const procs = 2
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "aligned", WriteMode, smallCfg())
		if err != nil {
			return err
		}
		// Fill 4 full segments collaboratively with the interleaved pattern.
		if err := writeInterleaved(c, f, 32); err != nil { // 32*2*12 = 768 bytes = 12 segments
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Each fully dirty segment should drain as ONE file system write.
		st := f.Stats()
		if st.FSWrites == 0 {
			return errors.New("no drain writes")
		}
		fileSegs := int64(768) / 64
		perRank := fileSegs / procs
		if st.FSWrites > perRank {
			return fmt.Errorf("drain used %d writes for %d segments", st.FSWrites, perRank)
		}
		return nil
	})
}

func TestRandomPlansMatchPOSIXReference(t *testing.T) {
	// Property-style test: random non-overlapping per-rank write plans
	// executed through TCIO yield exactly the file a serial POSIX writer
	// would produce.
	for seed := int64(1); seed <= 3; seed++ {
		const procs = 4
		const fileSize = 2048
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, fileSize)
		plans := make([][]datatype.Segment, procs)
		// Partition the file into 32-byte slots dealt round-robin; each
		// rank writes a random subset of its slots, in random order.
		const slot = 32
		for s := 0; s*slot < fileSize; s++ {
			r := s % procs
			if rng.Intn(4) == 0 {
				continue
			}
			plans[r] = append(plans[r], datatype.Segment{Off: int64(s * slot), Len: slot})
		}
		for r := range plans {
			rng.Shuffle(len(plans[r]), func(i, j int) {
				plans[r][i], plans[r][j] = plans[r][j], plans[r][i]
			})
		}
		payload := func(r int, off int64) byte { return byte(int64(r+1)*37 + off) }
		for r, plan := range plans {
			for _, s := range plan {
				for i := int64(0); i < s.Len; i++ {
					ref[s.Off+i] = payload(r, s.Off+i)
				}
			}
		}
		name := fmt.Sprintf("rand%d", seed)
		var snapshot []byte
		run(t, procs, func(c *mpi.Comm) error {
			f, err := Open(c, name, WriteMode, Config{SegmentSize: 128, NumSegments: 8})
			if err != nil {
				return err
			}
			for _, s := range plans[c.Rank()] {
				data := make([]byte, s.Len)
				for i := int64(0); i < s.Len; i++ {
					data[i] = payload(c.Rank(), s.Off+i)
				}
				if err := f.WriteAt(s.Off, data); err != nil {
					return err
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				snapshot = c.FS().Open(name).Snapshot()
			}
			return nil
		})
		if len(snapshot) < len(ref) {
			snapshot = append(snapshot, make([]byte, len(ref)-len(snapshot))...)
		}
		if !bytes.Equal(snapshot, ref) {
			t.Fatalf("seed %d: TCIO file differs from POSIX reference", seed)
		}
	}
}

func TestMemoryFootprintSmallerThanOCIO(t *testing.T) {
	// The paper's Fig. 6 argument: TCIO needs level-2 (data size) plus one
	// segment; OCIO needs combine buffer + aggregator buffer (2x data).
	// With a per-rank share of 2 GiB and 0.75 GiB of data per rank
	// (simulated), TCIO must fit.
	m := cluster.Lonestar()
	m.ByteScale = 1 << 20 // 1 MiB simulated per real byte
	_, err := mpi.Run(mpi.Config{Procs: 12, Machine: m, EnforceMemory: true}, func(c *mpi.Comm) error {
		// 768 real bytes = 768 MiB simulated data per rank.
		// Level-2: NumSegments*SegmentSize = 768 real bytes; level-1: 64.
		f, err := Open(c, "mem", WriteMode, Config{SegmentSize: 64, NumSegments: 12})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatalf("TCIO should fit in the memory share: %v", err)
	}
}

// TestWriteAtCopiesBeforeReturning pins the caller-buffer contract
// checkpoint writers rely on (art.Dump encodes every tree into one reused
// record buffer): data belongs to the caller again the moment WriteAt
// returns, whether the piece was staged in level 1, cut at a segment
// boundary, or — with level 1 off — shipped straight from the caller's
// slice. Every rank writes all its pieces from one buffer and scribbles
// over it after each call.
func TestWriteAtCopiesBeforeReturning(t *testing.T) {
	pattern := func(off int64) byte { return byte(off*31 + off>>8 + 1) }
	sizes := []int64{5, 59, 64, 100, 200, 1} // within, up to, exactly, across and several segments
	const procs, stride = 3, 500
	direct := smallCfg()
	direct.DisableLevel1 = true
	for name, cfg := range map[string]Config{"level1": smallCfg(), "DisableLevel1": direct} {
		run(t, procs, func(c *mpi.Comm) error {
			f, err := Open(c, "contract-"+name, WriteMode, cfg)
			if err != nil {
				return err
			}
			buf := make([]byte, 200)
			off := int64(c.Rank()) * stride
			for _, n := range sizes {
				for i := range buf[:n] {
					buf[i] = pattern(off + int64(i))
				}
				if err := f.WriteAt(off, buf[:n]); err != nil {
					return err
				}
				for i := range buf {
					buf[i] = 0xEE
				}
				off += n
			}
			if err := f.Close(); err != nil {
				return err
			}
			if c.Rank() != 0 {
				return nil
			}
			img := c.FS().Open("contract-" + name).Snapshot()
			for r := int64(0); r < procs; r++ {
				for o := r * stride; o < r*stride+429; o++ {
					if img[o] != pattern(o) {
						return fmt.Errorf("%s: file byte %d is %#x, want %#x: WriteAt kept the caller's slice", name, o, img[o], pattern(o))
					}
				}
			}
			return nil
		})
	}
}
