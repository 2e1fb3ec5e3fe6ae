// Package datatype implements MPI derived datatypes: typed descriptions of
// possibly non-contiguous memory or file layouts. OCIO's file views are
// built from these (MPI_Type_contiguous / vector / indexed / struct), and
// TCIO combines the blocks of a level-1 buffer into one indexed type so a
// whole flush travels in a single one-sided operation (§IV.A of the paper).
//
// A datatype describes a byte layout as a list of (offset, length) segments
// relative to the start of one type instance, plus an extent — the stride
// between consecutive instances. Flatten expands count instances into a
// single segment list; Pack and Unpack gather and scatter bytes through a
// layout.
package datatype

import (
	"fmt"
	"slices"
	"strings"

	"github.com/tcio/tcio/internal/extent"
)

// Segment is one contiguous run of bytes within a datatype's layout. It is
// an alias of extent.Extent — the repository-wide run representation — so
// flattened layouts flow into the extent algebra and the storage layer
// without conversion.
type Segment = extent.Extent

// Type describes a (possibly non-contiguous) byte layout.
type Type interface {
	// Size is the number of data bytes in one instance (holes excluded).
	Size() int64
	// Extent is the span of one instance including holes: instance i of a
	// flattened sequence begins at i*Extent().
	Extent() int64
	// Segments returns the contiguous runs of one instance in layout order.
	// Callers must not modify the returned slice.
	Segments() []Segment
	// String names the type for diagnostics.
	String() string
}

// basic builds a named elementary type of fixed width.
func basic(name string, width int64) Type {
	return &derived{name: name, size: width, extent: width, segs: []Segment{{Off: 0, Len: width}}}
}

// Elementary MPI types used by the paper's benchmark (Table I: c, s, i, f, d).
var (
	Byte   Type = basic("MPI_BYTE", 1)
	Char   Type = basic("MPI_CHAR", 1)
	Short  Type = basic("MPI_SHORT", 2)
	Int    Type = basic("MPI_INT", 4)
	Float  Type = basic("MPI_FLOAT", 4)
	Double Type = basic("MPI_DOUBLE", 8)
	Long   Type = basic("MPI_LONG", 8)
)

// ByName resolves the single-letter type codes of the paper's Table I
// ("c: char; s: short; i: integer; f: float; d: double").
func ByName(code string) (Type, error) {
	switch strings.TrimSpace(code) {
	case "c":
		return Char, nil
	case "s":
		return Short, nil
	case "i":
		return Int, nil
	case "f":
		return Float, nil
	case "d":
		return Double, nil
	case "b":
		return Byte, nil
	case "l":
		return Long, nil
	default:
		return nil, fmt.Errorf("datatype: unknown type code %q", code)
	}
}

// derived is the common representation of all types; Segments returns the
// stored list, so walking a layout never allocates.
type derived struct {
	name   string
	size   int64
	extent int64
	segs   []Segment
}

func (d *derived) Size() int64         { return d.size }
func (d *derived) Extent() int64       { return d.extent }
func (d *derived) Segments() []Segment { return d.segs }
func (d *derived) String() string      { return d.name }

// expand appends count instances of t, each shifted by i*t.Extent()+base,
// growing dst once to hold them rather than doubling up to its length.
func expand(dst []Segment, t Type, count int, base int64) []Segment {
	dst = slices.Grow(dst, max(count, 0)*len(t.Segments()))
	ext := t.Extent()
	for i := 0; i < count; i++ {
		off := base + int64(i)*ext
		for _, s := range t.Segments() {
			dst = append(dst, Segment{Off: off + s.Off, Len: s.Len})
		}
	}
	return dst
}

// Contiguous builds MPI_Type_contiguous: count repetitions of base laid
// end to end.
func Contiguous(count int, base Type) (Type, error) {
	if count < 0 {
		return nil, fmt.Errorf("datatype: Contiguous count %d < 0", count)
	}
	d := &derived{
		name:   fmt.Sprintf("contig(%d,%s)", count, base),
		size:   int64(count) * base.Size(),
		extent: int64(count) * base.Extent(),
	}
	d.segs = Coalesce(expand(nil, base, count, 0))
	return d, nil
}

// Vector builds MPI_Type_vector: count blocks of blocklen base elements,
// with a stride (in base elements) between block starts.
func Vector(count, blocklen, stride int, base Type) (Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: Vector count=%d blocklen=%d", count, blocklen)
	}
	if count > 0 && blocklen > stride && count > 1 {
		return nil, fmt.Errorf("datatype: Vector blocklen %d exceeds stride %d", blocklen, stride)
	}
	ext := int64(0)
	if count > 0 {
		ext = int64(count-1)*int64(stride)*base.Extent() + int64(blocklen)*base.Extent()
	}
	d := &derived{
		name:   fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, base),
		size:   int64(count) * int64(blocklen) * base.Size(),
		extent: ext,
	}
	segs := make([]Segment, 0, count*blocklen*len(base.Segments()))
	for i := 0; i < count; i++ {
		segs = expand(segs, base, blocklen, int64(i)*int64(stride)*base.Extent())
	}
	d.segs = Coalesce(segs)
	return d, nil
}

// Indexed builds MPI_Type_indexed: len(blocklens) blocks, block i holding
// blocklens[i] base elements at element displacement displs[i].
func Indexed(blocklens, displs []int, base Type) (Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: Indexed %d blocklens vs %d displs", len(blocklens), len(displs))
	}
	hb := make([]int64, len(blocklens))
	hd := make([]int64, len(displs))
	for i := range blocklens {
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("datatype: Indexed blocklen[%d] = %d", i, blocklens[i])
		}
		hb[i] = int64(blocklens[i]) * base.Size()
		hd[i] = int64(displs[i]) * base.Extent()
	}
	t, err := Hindexed(hb, hd)
	if err != nil {
		return nil, err
	}
	t.(*derived).name = fmt.Sprintf("indexed(%d,%s)", len(blocklens), base)
	return t, nil
}

// Hindexed builds MPI_Type_create_hindexed with byte-granular blocks:
// block i spans [displs[i], displs[i]+blocklens[i]) bytes. This is the form
// TCIO uses to combine a level-1 buffer's cached blocks into one transfer.
//
// The layout is canonicalized by coalescing, so bytes covered by several
// overlapping blocks appear — and are counted by Size — exactly once. (MPI
// proper would pack such bytes repeatedly; here Size, Segments, Pack, and
// Unpack must describe the same byte set or view flattening and round
// trips break, so overlap deduplicates.)
func Hindexed(blocklens, displs []int64) (Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: Hindexed %d blocklens vs %d displs", len(blocklens), len(displs))
	}
	var ext int64
	segs := make([]Segment, 0, len(blocklens))
	for i := range blocklens {
		if blocklens[i] < 0 || displs[i] < 0 {
			return nil, fmt.Errorf("datatype: Hindexed block %d = (%d,%d)", i, displs[i], blocklens[i])
		}
		if blocklens[i] == 0 {
			continue
		}
		segs = append(segs, Segment{Off: displs[i], Len: blocklens[i]})
		if end := displs[i] + blocklens[i]; end > ext {
			ext = end
		}
	}
	merged := Coalesce(segs)
	var size int64
	for _, s := range merged {
		size += s.Len
	}
	return &derived{
		name:   fmt.Sprintf("hindexed(%d)", len(blocklens)),
		size:   size,
		extent: ext,
		segs:   merged,
	}, nil
}

// Struct builds MPI_Type_create_struct: for each i, blocklens[i] elements of
// types[i] at byte displacement displs[i]. The extent spans to the end of
// the last byte touched, which is what the paper's FTT layouts need. Like
// Hindexed, the layout is canonicalized by coalescing and Size counts each
// covered byte once even when fields overlap.
func Struct(blocklens []int, displs []int64, types []Type) (Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(types) {
		return nil, fmt.Errorf("datatype: Struct arity mismatch %d/%d/%d",
			len(blocklens), len(displs), len(types))
	}
	var ext int64
	var segs []Segment
	for i := range blocklens {
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("datatype: Struct blocklen[%d] = %d", i, blocklens[i])
		}
		segs = expand(segs, types[i], blocklens[i], displs[i])
		end := displs[i] + int64(blocklens[i])*types[i].Extent()
		if end > ext {
			ext = end
		}
	}
	merged := Coalesce(segs)
	var size int64
	for _, s := range merged {
		size += s.Len
	}
	return &derived{
		name:   fmt.Sprintf("struct(%d)", len(types)),
		size:   size,
		extent: ext,
		segs:   merged,
	}, nil
}

// Resized returns a copy of t with a new extent (MPI_Type_create_resized),
// used to pad or shrink the stride between flattened instances.
func Resized(t Type, extent int64) (Type, error) {
	if extent < 0 {
		return nil, fmt.Errorf("datatype: Resized extent %d < 0", extent)
	}
	return &derived{
		name:   fmt.Sprintf("resized(%s,%d)", t, extent),
		size:   t.Size(),
		extent: extent,
		segs:   t.Segments(),
	}, nil
}

// Coalesce sorts segments by offset and merges adjacent or overlapping runs.
// Zero-length runs are dropped. The input slice may be reordered. It is
// extent.Coalesce under the Segment alias.
func Coalesce(segs []Segment) []Segment { return extent.Coalesce(segs) }

// Flatten expands count consecutive instances of t, starting at byte base,
// into an absolute, coalesced segment list.
func Flatten(t Type, count int, base int64) []Segment {
	return Coalesce(expand(nil, t, count, base))
}

// Pack gathers count instances of t from src into a dense byte slice.
// src must cover count*t.Extent() bytes.
func Pack(src []byte, t Type, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("datatype: Pack of %d elements", count)
	}
	need := int64(count) * t.Extent()
	if int64(len(src)) < need {
		return nil, fmt.Errorf("datatype: Pack needs %d bytes of source, have %d", need, len(src))
	}
	dst := make([]byte, 0, int64(count)*t.Size())
	ext := t.Extent()
	for i := 0; i < count; i++ {
		off := int64(i) * ext
		for _, s := range t.Segments() {
			dst = append(dst, src[off+s.Off:off+s.Off+s.Len]...)
		}
	}
	return dst, nil
}

// Unpack scatters a dense byte slice into count instances of t inside dst.
// data must hold exactly count*t.Size() bytes and dst must cover
// count*t.Extent() bytes.
func Unpack(data, dst []byte, t Type, count int) error {
	if count < 0 {
		return fmt.Errorf("datatype: Unpack of %d elements", count)
	}
	if int64(len(data)) != int64(count)*t.Size() {
		return fmt.Errorf("datatype: Unpack data %d bytes, want %d", len(data), int64(count)*t.Size())
	}
	need := int64(count) * t.Extent()
	if int64(len(dst)) < need {
		return fmt.Errorf("datatype: Unpack needs %d bytes of destination, have %d", need, len(dst))
	}
	ext := t.Extent()
	pos := int64(0)
	for i := 0; i < count; i++ {
		off := int64(i) * ext
		for _, s := range t.Segments() {
			copy(dst[off+s.Off:off+s.Off+s.Len], data[pos:pos+s.Len])
			pos += s.Len
		}
	}
	return nil
}
