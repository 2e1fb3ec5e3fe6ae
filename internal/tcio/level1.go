package tcio

// The level-1 buffer (paper §IV.A): one segment-sized, segment-aligned
// per-process buffer that coalesces small sequential writes before they
// travel to the level-2 window as a single indexed-datatype put.
//
// The whole segment is charged to the rank's simulated memory at Open; the
// host holds only the bytes in flight. Its pages are materialised when an
// epoch's pieces first touch them and go back to the handle's free list at
// the flush, so a rank that stages one 35 KB record of a 1 MiB segment per
// epoch holds one or two pages, not the segment.

import (
	"fmt"
	"slices"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/trace"
)

// Write appends data at the current file pointer (tcio_write).
func (f *File) Write(data []byte) error {
	if err := f.WriteAt(f.pos, data); err != nil {
		return err
	}
	f.pos += int64(len(data))
	return nil
}

// WriteTyped writes count elements of type t, gathered from mem according
// to the type's layout — the tcio_write(fh, data, count, MPI_Datatype)
// entry point of the paper's Program 1.
func (f *File) WriteTyped(mem []byte, count int, t datatype.Type) error {
	packed, err := datatype.Pack(mem, t, count)
	if err != nil {
		return err
	}
	return f.Write(packed)
}

// WriteAt writes data at the given file offset (tcio_write_at). The call
// is fully independent: no other rank needs to participate.
func (f *File) WriteAt(off int64, data []byte) error {
	switch {
	case f.closed:
		return ErrClosed
	case f.mode != WriteMode:
		return fmt.Errorf("%w: write on %s handle", ErrMode, f.mode)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off)
	}
	f.stats.Writes++
	f.stats.BytesWritten += int64(len(data))
	if f.tracing() {
		f.emit(trace.KindWrite, f.c.Now(), int64(len(data)), fmt.Sprintf("off=%d", off))
	}
	return f.pieces(off, int64(len(data)), func(seg, segOff, at, n int64) error {
		f.c.Compute(f.pieceCharge(at))
		return f.stageWrite(seg, segOff, data[at:at+n])
	})
}

// stageWrite places one within-segment piece into the level-1 buffer,
// flushing and realigning first when the piece belongs to a different
// segment than the buffer is aligned with.
func (f *File) stageWrite(seg, segOff int64, piece []byte) error {
	if f.cfg.DisableLevel1 {
		// Ablation: ship the piece immediately with its own one-sided op.
		return f.ship(seg, []extent.Extent{{Off: segOff, Len: int64(len(piece))}}, piece, nil)
	}
	if f.l1Seg != seg {
		if err := f.flushLevel1(); err != nil {
			return err
		}
		f.l1Seg = seg
	}
	f.l1.put(segOff, piece)
	// A piece that abuts the last block extends it: Coalesce merges abutting
	// runs, so flushLevel1 ships the same runs, and a sequential epoch keeps
	// one block instead of one per piece.
	if n := len(f.l1Blocks); n > 0 && f.l1Blocks[n-1].End() == segOff {
		f.l1Blocks[n-1].Len += int64(len(piece))
		return nil
	}
	f.l1Blocks = append(f.l1Blocks, extent.Extent{Off: segOff, Len: int64(len(piece))})
	return nil
}

// flushLevel1 ships the level-1 buffer's cached blocks to the owning
// level-2 segment as one indexed-datatype one-sided put. When they fill one
// whole page, the put offers the page itself (Win.GivePageAsync): a window
// that keeps it takes it out of the page table, so it is never recycled.
func (f *File) flushLevel1() error {
	var err error
	if f.l1Seg >= 0 && len(f.l1Blocks) > 0 {
		blocks := extent.Coalesce(f.l1Blocks)
		err = f.ship(f.l1Seg, blocks, f.l1.pack(blocks), f.l1.whole(blocks))
		f.l1.recycle(blocks)
	}
	f.l1Seg = -1
	f.l1Blocks = f.l1Blocks[:0]
	return err
}

// l1PageSize caps a level-1 host page. A page is the unit the host
// materialises, so it bounds what an epoch that touches a few bytes of a
// large segment holds; it is a constant, not a knob, because no simulated
// number depends on it.
const l1PageSize = 64 << 10

// level1 is a write handle's level-1 buffer in host memory: a page table
// over the aligned segment (nil where the epoch has not written), the
// pages earlier epochs gave back, and the scratch a flush packs its runs
// into. It sits behind a pointer to keep session small. Bytes of a
// recycled page are stale until the epoch writes them, and only the
// epoch's staged runs are ever read, so no page is cleared.
type level1 struct {
	pageSize int64
	pages    [][]byte
	free     [][]byte
	payload  []byte
}

// newLevel1 builds an empty level-1 buffer over a segment of segSize bytes.
func newLevel1(segSize int64) *level1 {
	ps := min(segSize, l1PageSize)
	return &level1{pageSize: ps, pages: make([][]byte, (segSize+ps-1)/ps)}
}

// page returns page i, materialising it from the free list (or the heap)
// on the epoch's first touch.
func (l *level1) page(i int64) []byte {
	if l.pages[i] == nil {
		if n := len(l.free); n > 0 {
			l.pages[i], l.free = l.free[n-1], l.free[:n-1]
		} else {
			l.pages[i] = make([]byte, l.pageSize)
		}
	}
	return l.pages[i]
}

// put copies piece to segment offset off, page by page.
func (l *level1) put(off int64, piece []byte) {
	for len(piece) > 0 {
		n := copy(l.page(off / l.pageSize)[off%l.pageSize:], piece)
		piece = piece[n:]
		off += int64(n)
	}
}

// pack returns the coalesced blocks' bytes in block order — the payload of
// one indexed put. A lone run inside one page ships straight from the page
// (put's consumers copy synchronously); anything else is packed into the
// payload scratch, grown to the payload's size.
func (l *level1) pack(blocks []extent.Extent) []byte {
	if b := blocks[0]; len(blocks) == 1 && b.Off/l.pageSize == (b.End()-1)/l.pageSize {
		at := b.Off % l.pageSize
		return l.pages[b.Off/l.pageSize][at : at+b.Len]
	}
	payload := slices.Grow(l.payload[:0], int(extent.Total(blocks)))
	for _, b := range blocks {
		for off := b.Off; off < b.End(); {
			at := off % l.pageSize
			n := min(l.pageSize-at, b.End()-off)
			payload = append(payload, l.pages[off/l.pageSize][at:at+n]...)
			off += n
		}
	}
	l.payload = payload[:0]
	return payload
}

// whole returns the page table slot of the page the coalesced blocks fill
// exactly, or nil.
func (l *level1) whole(blocks []extent.Extent) *[]byte {
	if b := blocks[0]; len(blocks) == 1 && b.Off%l.pageSize == 0 && b.Len == l.pageSize {
		return &l.pages[b.Off/l.pageSize]
	}
	return nil
}

// recycle returns every page the coalesced blocks touch to the free list.
func (l *level1) recycle(blocks []extent.Extent) {
	for _, b := range blocks {
		for i := b.Off / l.pageSize; i <= (b.End()-1)/l.pageSize; i++ {
			if p := l.pages[i]; p != nil {
				l.free = append(l.free, p)
				l.pages[i] = nil
			}
		}
	}
}
