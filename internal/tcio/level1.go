package tcio

// The level-1 buffer (paper §IV.A): one segment-sized, segment-aligned
// per-process buffer that coalesces small sequential writes before they
// travel to the level-2 window as a single indexed-datatype put.

import (
	"fmt"

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
		return f.ship(seg, []extent.Extent{{Off: segOff, Len: int64(len(piece))}}, piece)
	}
	if f.l1Seg != seg {
		if err := f.flushLevel1(); err != nil {
			return err
		}
		f.l1Seg = seg
	}
	copy(f.l1Buf[segOff:segOff+int64(len(piece))], piece)
	f.l1Blocks = append(f.l1Blocks, extent.Extent{Off: segOff, Len: int64(len(piece))})
	return nil
}

// flushLevel1 ships the level-1 buffer's cached blocks to the owning
// level-2 segment as one indexed-datatype one-sided put.
func (f *File) flushLevel1() error {
	var err error
	if f.l1Seg >= 0 && len(f.l1Blocks) > 0 {
		blocks, payload := f.packLevel1()
		err = f.ship(f.l1Seg, blocks, payload)
	}
	f.l1Seg = -1
	f.l1Blocks = f.l1Blocks[:0]
	return err
}

// packLevel1 coalesces the level-1 buffer's cached blocks and returns them
// with their bytes packed in block order — the indexed datatype of one put.
func (f *File) packLevel1() ([]extent.Extent, []byte) {
	blocks := extent.Coalesce(f.l1Blocks)
	// One run ships straight out of the level-1 buffer (put's consumers
	// copy synchronously); only a multi-run flush needs its runs packed.
	payload := f.l1Buf[blocks[0].Off:blocks[0].End()]
	if len(blocks) > 1 {
		if f.payloadScratch == nil {
			f.payloadScratch = make([]byte, 0, f.layout.SegSize)
		}
		payload = f.payloadScratch[:0]
		for _, b := range blocks {
			payload = append(payload, f.l1Buf[b.Off:b.End()]...)
		}
		f.payloadScratch = payload[:0]
	}
	return blocks, payload
}
