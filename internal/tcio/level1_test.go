package tcio

// Tests for the host side of the level-1 buffer and of Fetch: the level-1
// buffer is charged as one segment but held as the pages an epoch touches,
// and a get lands in the reader's destinations with no arena between.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
)

// pagesHeld counts the level-1 pages a write handle holds: materialised in
// the page table or waiting on the free list.
func pagesHeld(f *File) int {
	n := len(f.l1.free)
	for _, p := range f.l1.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestLevel1HoldsOnlyTouchedPages: a 1 MiB-segment write handle staging one
// ART-sized record per epoch — about 35 KB, straddling a page boundary in
// some epochs — holds at most two pages, while its simulated charge is the
// whole segment.
func TestLevel1HoldsOnlyTouchedPages(t *testing.T) {
	const segSize, record = 1 << 20, 35 << 10
	// Consecutive records alternate between rank 0's two segments, so each
	// epoch stages one record; three of them cross a page boundary.
	offs := []int64{0, 2*segSize + 500<<10, 60 << 10, 2*segSize + 127<<10, segSize - record, 2*segSize + 64<<10 - 1000}
	run(t, 2, func(c *mpi.Comm) error {
		before := c.MemUsed()
		f, err := Open(c, "l1-pages", WriteMode, Config{SegmentSize: segSize, NumSegments: 2})
		if err != nil {
			return err
		}
		if got, want := c.MemUsed()-before, 3*c.Machine().Scale(segSize); got != want {
			return fmt.Errorf("open charged %d simulated bytes, want window + level-1 = %d", got, want)
		}
		if c.Rank() == 0 {
			rec := make([]byte, record)
			for i, off := range offs {
				for j := range rec {
					rec[j] = byte(i + j)
				}
				if err := f.WriteAt(off, rec); err != nil {
					return err
				}
				if n := pagesHeld(f); n > 2 {
					return fmt.Errorf("epoch %d at %d holds %d pages, want at most 2", i, off, n)
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := make([]byte, 2*segSize+500<<10+record)
			for i, off := range offs {
				for j := 0; j < record; j++ {
					want[off+int64(j)] = byte(i + j)
				}
			}
			if got := c.FS().Open("l1-pages").Snapshot(); !bytes.Equal(got, want) {
				return fmt.Errorf("file image differs from the written records")
			}
		}
		return nil
	})
}

// TestPagedLevel1MatchesContiguousImage: same-rank rewrites inside one
// epoch that straddle page boundaries produce the file bytes of a POSIX
// reference, and the same file bytes and per-rank virtual times as a handle
// whose level-1 buffer is one contiguous segment-sized page.
func TestPagedLevel1MatchesContiguousImage(t *testing.T) {
	const procs, segSize = 2, 4 * l1PageSize
	type piece struct {
		off  int64
		data []byte
	}
	// Each rank's seeded stream: six epochs of 40 pieces near a page
	// boundary, each epoch in one of the rank's own segments (0, 1 or 2, 3
	// apart by rank) and the next epoch in the other, so the rewrites share
	// an epoch and every epoch ends in a flush.
	streams := make([][]piece, procs)
	ref := make([]byte, 4*segSize)
	size := 0
	for r := range streams {
		rng := rand.New(rand.NewSource(int64(11 + r)))
		for epoch := 0; epoch < 6; epoch++ {
			base := int64(epoch%2*procs+r) * segSize
			for range 40 {
				off := base + int64(1+rng.Intn(3))*l1PageSize - int64(rng.Intn(300))
				data := make([]byte, 1+rng.Intn(600))
				rng.Read(data)
				streams[r] = append(streams[r], piece{off, data})
				copy(ref[off:], data) // the ranks' segments are disjoint
				size = max(size, int(off)+len(data))
			}
		}
	}
	type outcome struct {
		file  []byte
		ends  [procs]int64
		ships int64
	}
	write := func(contiguous bool) outcome {
		var out outcome
		run(t, procs, func(c *mpi.Comm) error {
			f, err := Open(c, "l1-straddle", WriteMode, Config{SegmentSize: segSize, NumSegments: 2})
			if err != nil {
				return err
			}
			if contiguous {
				f.l1 = &level1{pageSize: segSize, pages: make([][]byte, 1)}
			}
			for _, p := range streams[c.Rank()] {
				if err := f.WriteAt(p.off, p.data); err != nil {
					return err
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			out.ends[c.Rank()] = int64(c.Now())
			if c.Rank() == 0 {
				out.ships = f.Stats().Level1Flush
				out.file = c.FS().Open("l1-straddle").Snapshot()
			}
			return nil
		})
		return out
	}
	paged, contiguous := write(false), write(true)
	if !bytes.Equal(paged.file, ref[:size]) {
		t.Fatal("paged level-1 file image differs from the POSIX reference")
	}
	if !bytes.Equal(contiguous.file, paged.file) {
		t.Fatal("contiguous level-1 file image differs from the paged one")
	}
	if paged.ends != contiguous.ends || paged.ships != contiguous.ships {
		t.Fatalf("paged: ends %v ns, %d ships; contiguous: ends %v ns, %d ships",
			paged.ends, paged.ships, contiguous.ends, contiguous.ships)
	}
}

// TestPagedFlushDoesNotAllocate pins a warm paged flush's host cost: epochs
// alternating between two segments, each a run across a page boundary and
// a run in another page — so every flush packs into the payload scratch and
// recycles three pages — allocate nothing once the free list is warm.
func TestPagedFlushDoesNotAllocate(t *testing.T) {
	const segSize = 4 * l1PageSize
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "l1-noalloc", WriteMode, Config{SegmentSize: segSize, NumSegments: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			straddle, tail := []byte("0123456789abcdef"), []byte("tailtail")
			i := int64(0)
			write := func() { // segments 0, 1, 0, ...: each epoch flushes the one before
				base := i % 2 * segSize
				if err := f.WriteAt(base+l1PageSize-8, straddle); err != nil {
					panic(err)
				}
				if err := f.WriteAt(base+3*l1PageSize, tail); err != nil {
					panic(err)
				}
				i++
			}
			for range 4 {
				write()
			}
			ships := f.Stats().Level1Flush
			if a := testing.AllocsPerRun(200, write); a != 0 {
				return fmt.Errorf("%v allocs per paged epoch, want 0", a)
			}
			if got := f.Stats().Level1Flush - ships; got != 201 {
				return fmt.Errorf("%d flushes in 201 epochs", got)
			}
			if n := pagesHeld(f); n != 3 {
				return fmt.Errorf("handle holds %d pages, want the 3 one epoch touches", n)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.FS().Open("l1-noalloc").Snapshot()
			for _, base := range []int64{0, segSize} {
				if got := snap[base+l1PageSize-8 : base+l1PageSize+8]; string(got) != "0123456789abcdef" {
					return fmt.Errorf("segment at %d: straddling run reads %q", base, got)
				}
				if got := snap[base+3*l1PageSize : base+3*l1PageSize+8]; string(got) != "tailtail" {
					return fmt.Errorf("segment at %d: tail run reads %q", base, got)
				}
			}
		}
		return nil
	})
}

// TestFetchOverlappingDestinationsLastWins: a Fetch whose reads share
// destination bytes fills them as if each read were copied in turn, in the
// fetch's group order (segments in first-appearance order, reads in queue
// order within one) — so where reads of one segment overlap, or of
// segments queued one after the other, the later read wins.
func TestFetchOverlappingDestinationsLastWins(t *testing.T) {
	const segSize, segs = 64, 8
	run(t, 2, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "fetch-lastwins", segs*segSize); err != nil {
			return err
		}
		f, err := Open(c, "fetch-lastwins", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Hand-picked: a duplicate destination and a partial overlap in
			// segment 0, then segment 1 over both.
			dst := make([]byte, 16)
			for _, r := range []struct {
				off    int64
				lo, hi int
			}{{0, 0, 8}, {8, 4, 12}, {16, 0, 8}, {segSize + 3, 10, 14}} {
				if err := f.ReadAt(r.off, dst[r.lo:r.hi]); err != nil {
					return err
				}
			}
			if err := f.Fetch(); err != nil {
				return err
			}
			want := make([]byte, 16)
			for i := range 8 {
				want[i] = wantReadByte(int64(16 + i))
			}
			for i := 8; i < 10; i++ {
				want[i] = wantReadByte(int64(i + 4))
			}
			for i := 10; i < 14; i++ {
				want[i] = wantReadByte(int64(segSize + 3 + i - 10))
			}
			if !bytes.Equal(dst, want) {
				return fmt.Errorf("fetched %v, want %v", dst, want)
			}
			// Seeded: random reads into overlapping windows of one small
			// buffer, against a reference that copies them in group order.
			rng := rand.New(rand.NewSource(5))
			for trial := range 50 {
				dst := make([]byte, 24)
				var queue []readReq
				for range 1 + rng.Intn(12) {
					n := 1 + rng.Intn(8)
					off := int64(rng.Intn(segs)*segSize + rng.Intn(segSize-n+1))
					at := rng.Intn(len(dst) - n + 1)
					queue = append(queue, readReq{off: off, dst: dst[at : at+n]})
					if err := f.ReadAt(off, dst[at:at+n]); err != nil {
						return err
					}
				}
				if err := f.Fetch(); err != nil {
					return err
				}
				want := make([]byte, len(dst))
				bySeg, order := refGroupPending(queue, segSize)
				for _, seg := range order {
					for _, r := range bySeg[seg] {
						at := cap(dst) - cap(r.dst)
						for i := range r.dst {
							want[at+i] = wantReadByte(r.off + int64(i))
						}
					}
				}
				if !bytes.Equal(dst, want) {
					return fmt.Errorf("trial %d: fetched %v, want %v", trial, dst, want)
				}
			}
		}
		return f.Close()
	})
}
