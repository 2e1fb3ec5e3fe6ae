package mpiio

// Tests for OCIO's hand-over write: an aggregator gives its domain buffer
// to the file system, which keeps every page the domain covers whole as a
// slice of it instead of copying it.

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
