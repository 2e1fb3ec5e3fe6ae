package extent

import "github.com/tcio/tcio/internal/mutate"

// Layout is the paper's round-robin mapping of global file offsets onto the
// level-2 buffers of P processes (§IV.A, equations (1)-(3)):
//
//	rank(offset)    = (offset / SegSize) % P     (1)
//	segment(offset) = (offset / SegSize) / P     (2)
//	disp(offset)    =  offset % SegSize          (3)
//
// The file is viewed as consecutive segments of SegSize bytes; segment g is
// owned by rank g % P and lives in that rank's local slot g / P. NumSeg
// bounds the slots each rank exposes, so P * NumSeg * SegSize bytes of file
// are addressable. The delegation tier's domain blocks are the segments of
// a Layout over its server ranks.
type Layout struct {
	// P is the number of processes sharing the file.
	P int
	// SegSize is the segment length in bytes (the file system's lock
	// granularity in the paper's configuration).
	SegSize int64
	// NumSeg is the number of segments each process exposes.
	NumSeg int
}

// Locate applies equations (1)-(3) to a file offset.
func (l Layout) Locate(off int64) (rank int, slot, disp int64) {
	seg := off / l.SegSize
	return int(seg % int64(l.P)), seg / int64(l.P), off % l.SegSize
}

// Segment returns the global segment index containing the offset.
func (l Layout) Segment(off int64) int64 { return off / l.SegSize }

// Owner returns the owning rank and its local slot for a global segment.
func (l Layout) Owner(seg int64) (rank int, slot int64) {
	r := seg % int64(l.P)
	if mutate.Enabled(mutate.ExtentLayoutOwnerSkew) {
		r = (seg + 1) % int64(l.P)
	}
	return int(r), seg / int64(l.P)
}

// Clip locates the rank owning byte off and clips [off, end) to the end of
// off's segment: Layout as an owner map.
func (l Layout) Clip(off, end int64) (int, int64) {
	seg := l.Segment(off)
	rank, _ := l.Owner(seg)
	return rank, min(end, l.SegStart(seg+1))
}

// Pieces cuts the n bytes at offset off at segment boundaries (§IV.A) and
// calls fn on each piece in file order with its global segment, its
// displacement (3), its position in the access and its length.
func (l Layout) Pieces(off, n int64, fn func(seg, disp, at, n int64) error) error {
	for at := int64(0); at < n; {
		seg, disp := l.Segment(off+at), (off+at)%l.SegSize
		m := min(l.SegSize-disp, n-at)
		if err := fn(seg, disp, at, m); err != nil {
			return err
		}
		at += m
	}
	return nil
}

// SegStart returns the file offset where a global segment begins.
func (l Layout) SegStart(seg int64) int64 { return seg * l.SegSize }

// Capacity reports the total file range the layout can address.
func (l Layout) Capacity() int64 {
	return int64(l.P) * int64(l.NumSeg) * l.SegSize
}

// InRange reports whether a global segment maps inside the exposed slots.
func (l Layout) InRange(seg int64) bool {
	_, slot := l.Owner(seg)
	return slot < int64(l.NumSeg)
}

// RankSegment returns the global segment index of the given rank's slot —
// the iteration the drain and preload paths walk (each rank visits its own
// slots; the segments it touches are slot*P + rank).
func (l Layout) RankSegment(rank int, slot int64) int64 {
	return slot*int64(l.P) + int64(rank)
}
