package mpiio

// Tests for OCIO's buffer ownership: a write aggregator gives its domain
// buffer to the file system, which keeps every page the domain covers whole
// as a slice of it instead of copying it, and a read aggregator borrows its
// domain's pages from the file system instead of copying them.

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

// TestWriteAllHandsOverDomain: four ranks write interleaved 100-byte slots
// through a collective write, once covering every byte of each aggregator's
// domain and once leaving holes (the preread path) over a file filled
// beforehand. Both images equal a dense reference, and in every domain the
// pages it covers whole are consecutive slices of one buffer: the
// aggregator's. The stripe, and so the page, is 1000 bytes, which no Go
// size class holds exactly, so two pages the file system allocated itself
// are never exactly one page apart.
func TestWriteAllHandsOverDomain(t *testing.T) {
	const procs, slot, slots, stripe = 4, 100, 35, 1000
	pattern := func(off int64) byte { return byte(off*29 + off>>7 + 3) }
	for _, c := range []struct {
		name    string
		written int // bytes of each rank's slot it writes
	}{{"covered", slot}, {"holes", 60}} {
		t.Run(c.name, func(t *testing.T) {
			size := int64(procs * slot * slots)
			want := bytes.Repeat([]byte{0xEE}, int(size))
			for o := int64(0); o < size; o++ {
				if o%slot < int64(c.written) {
					want[o] = pattern(o)
				}
			}
			fscfg := pfs.DefaultConfig()
			fscfg.StripeSize = stripe
			fs := pfs.New(fscfg)
			var lo, hi int64
			_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(cm *mpi.Comm) error {
				f, err := Open(cm, "handover")
				if err != nil {
					return err
				}
				if c.written < slot && cm.Rank() == 0 {
					if err := f.WriteAt(0, bytes.Repeat([]byte{0xEE}, int(size))); err != nil {
						return err
					}
				}
				if err := cm.Barrier(); err != nil {
					return err
				}
				piece, err := datatype.Contiguous(c.written, datatype.Byte)
				if err != nil {
					return err
				}
				ft, err := datatype.Resized(piece, procs*slot)
				if err != nil {
					return err
				}
				disp := int64(cm.Rank() * slot)
				if err := f.SetView(disp, datatype.Byte, ft); err != nil {
					return err
				}
				data := make([]byte, slots*c.written)
				for i := range data {
					o := disp + int64(i/c.written*procs*slot+i%c.written)
					data[i] = pattern(o)
				}
				if cm.Rank() == 0 {
					lo = disp
				}
				if cm.Rank() == procs-1 {
					hi = disp + int64((slots-1)*procs*slot+c.written)
				}
				return f.WriteAll(data)
			})
			if err != nil {
				t.Fatal(err)
			}
			file := fs.Open("handover")
			if got := file.Snapshot(); !bytes.Equal(got, want) {
				t.Fatal("file image differs from the dense reference")
			}
			part := extent.NewPartition(lo, hi, procs)
			for k := 0; k < procs; k++ {
				d := part.Domain(k)
				first, last := (d.Off+stripe-1)/stripe, d.End()/stripe-1 // pages d covers whole
				if last <= first {
					t.Fatalf("domain %v covers fewer than two whole pages", d)
				}
				if err := consecutive(file, first, last, stripe); err != nil {
					t.Errorf("domain %d %v: %v", k, d, err)
				}
			}
		})
	}
}

// consecutive reports an error unless pages first..last of file are
// capacity-capped slices laid end to end in memory.
func consecutive(file *pfs.File, first, last, page int64) error {
	prev := file.PageAt(first * page)
	for p := first + 1; p <= last; p++ {
		cur := file.PageAt(p * page)
		if int64(cap(prev)) != page || int64(cap(cur)) != page {
			return fmt.Errorf("pages %d and %d have capacities %d and %d, want %d", p-1, p, cap(prev), cap(cur), page)
		}
		if gap := uintptr(unsafe.Pointer(&cur[0])) - uintptr(unsafe.Pointer(&prev[0])); gap != uintptr(page) {
			return fmt.Errorf("page %d starts %d bytes after page %d, want %d: not one buffer", p, int64(gap), p-1, page)
		}
		prev = cur
	}
	return nil
}

// TestReadAllOverLentPages: four ranks read interleaved 100-byte slots of a
// file of 1000-byte pages, so no aggregator domain starts on a page, three
// times: over a file with holes, after a collective write over it (kept
// pages), and after an independent write into pages an earlier ReadAll
// borrowed (copied first). Each ReadAll returns the file's bytes of the
// moment. Separately, a lend of a domain and a read of it, each on a fresh
// copy of the file, end at the same virtual instant with the same file
// system counters, and the lent pages hold the read's bytes.
func TestReadAllOverLentPages(t *testing.T) {
	const procs, slot, slots, stripe = 4, 100, 35, 1000
	const size = procs * slot * slots
	fscfg := pfs.DefaultConfig()
	fscfg.StripeSize = stripe
	image := make([]byte, size)
	for o := range image {
		if o/stripe%3 != 1 { // every third page a hole
			image[o] = byte(o*29 + o>>7 + 3)
		}
	}
	fresh := func() *pfs.FileSystem {
		fs := pfs.New(fscfg)
		for p := 0; p < size; p += stripe {
			if p/stripe%3 != 1 {
				fs.Open("lent").StoreDirect(int64(p), image[p:p+stripe])
			}
		}
		return fs
	}
	view := func(f *File, rank int) error {
		piece, err := datatype.Contiguous(slot, datatype.Byte)
		if err != nil {
			return err
		}
		ft, err := datatype.Resized(piece, procs*slot)
		if err != nil {
			return err
		}
		return f.SetView(int64(rank*slot), datatype.Byte, ft)
	}
	want := func(img []byte, rank int) []byte {
		var out []byte
		for i := 0; i < slots; i++ {
			o := (i*procs + rank) * slot
			out = append(out, img[o:o+slot]...)
		}
		return out
	}
	rewritten := bytes.Repeat([]byte{0x5A}, size)
	patched := bytes.Clone(rewritten)
	copy(patched[1500:4500], bytes.Repeat([]byte{0xC3}, 3000))
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fresh()}, func(c *mpi.Comm) error {
		f, err := Open(c, "lent")
		if err != nil {
			return err
		}
		if err := view(f, c.Rank()); err != nil {
			return err
		}
		for round, img := range [][]byte{image, rewritten, patched} {
			switch round {
			case 1:
				if err := f.WriteAll(want(rewritten, c.Rank())); err != nil {
					return err
				}
			case 2:
				if c.Rank() == 0 {
					if _, err := c.FS().Open("lent").WriteAt(c.Node(), 1500, patched[1500:4500], c.Now()); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			if err := f.SeekTo(0); err != nil {
				return err
			}
			got, err := f.ReadAll(slots * slot)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want(img, c.Rank())) {
				return fmt.Errorf("rank %d round %d: ReadAll differs from the file", c.Rank(), round)
			}
			if err := f.SeekTo(0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	d := extent.Extent{Off: 1234, Len: 5678}
	var reps [2]mpi.Report
	var lent [][]byte
	read := make([]byte, d.Len)
	for i := range reps {
		reps[i], err = mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: fresh()}, func(c *mpi.Comm) error {
			f, err := Open(c, "lent")
			if err != nil {
				return err
			}
			if i == 0 {
				return f.readRetry(d.Off, read)
			}
			lent, err = f.lendRetry(d)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(reps[0].RankTimes, reps[0].FS) != fmt.Sprint(reps[1].RankTimes, reps[1].FS) {
		t.Fatalf("read %v %+v, lend %v %+v", reps[0].RankTimes, reps[0].FS, reps[1].RankTimes, reps[1].FS)
	}
	got := make([]byte, d.Len)
	gather(got, lent, d.Off-d.Off%stripe, stripe, d.Off)
	if !bytes.Equal(got, read) || !bytes.Equal(read, image[d.Off:d.End()]) {
		t.Fatal("the lent pages do not hold the read's bytes")
	}
}
