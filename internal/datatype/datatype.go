// Package datatype implements MPI derived datatypes: typed descriptions of
// possibly non-contiguous memory or file layouts. OCIO's file views are
// built from these (MPI_Type_contiguous / vector / indexed / struct), and
// TCIO combines the blocks of a level-1 buffer into one indexed type so a
// whole flush travels in a single one-sided operation (§IV.A of the paper).
//
// A datatype describes a byte layout relative to the start of one type
// instance as one block of (offset, length) segments repeated count times,
// stride bytes apart, plus an extent — the stride between consecutive
// instances. A regular type (a Vector, a Contiguous over a holed base, a
// Subarray's planes) thus costs one block however large its count; an
// irregular one is the count-1 case. Flatten expands count instances into
// a single segment list; Pack and Unpack gather and scatter bytes through a
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

// Type describes a (possibly non-contiguous) byte layout. Every Type is
// built by this package's constructors; Flatten(t, 1, 0) lists the runs
// of one instance.
type Type interface {
	// Size is the number of data bytes in one instance (holes excluded).
	Size() int64
	// Extent is the span of one instance including holes: instance i of a
	// flattened sequence begins at i*Extent().
	Extent() int64
	// String names the type for diagnostics.
	String() string
}

// basic builds a named elementary type of fixed width.
func basic(name string, width int64) Type {
	return strided(func() string { return name }, []Segment{{Off: 0, Len: width}}, 1, 0, width)
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

// derived is the one representation of every type: block, repeated count
// times stride bytes apart, is one instance's layout, so segment i is
// block[i mod B] shifted by (i div B)·stride. block is coalesced and its
// repeats are disjoint and ascending (block span <= stride), so an
// instance's segments ascend and Size counts each covered byte once. name
// formats on demand: a descriptor costs the same bytes whatever its counts.
type derived struct {
	name   func() string
	size   int64
	extent int64
	block  []Segment
	count  int
	stride int64
}

func (d *derived) Size() int64    { return d.size }
func (d *derived) Extent() int64  { return d.extent }
func (d *derived) String() string { return d.name() }

// strided builds the type whose instance is the coalesced block repeated
// count times, stride bytes apart; it keeps block and may change it in
// place. Repeats of one run that abut become one run; repeats that overlap
// (block span > stride) are coalesced into a single block, as any irregular
// layout is.
func strided(name func() string, block []Segment, count int, stride, extent int64) *derived {
	if count > 1 && len(block) > 0 {
		switch span := block[len(block)-1].End() - block[0].Off; {
		case len(block) == 1 && span == stride:
			block[0].Len, count = int64(count)*stride, 1
		case span > stride:
			block, count = Flatten(&derived{block: block, count: count, stride: stride}, 1, 0), 1
		}
	}
	var size int64
	for _, s := range block {
		size += s.Len
	}
	return &derived{name: name, size: int64(count) * size, extent: extent, block: block, count: count, stride: stride}
}

// expand appends count instances of t, each shifted by i*t.Extent()+base,
// growing dst once to hold them rather than doubling up to its length.
func expand(dst []Segment, t Type, count int, base int64) []Segment {
	d := t.(*derived)
	dst = slices.Grow(dst, max(count, 0)*d.count*len(d.block))
	for i := 0; i < count; i++ {
		for r, at := 0, base+int64(i)*d.extent; r < d.count; r, at = r+1, at+d.stride {
			for _, s := range d.block {
				dst = append(dst, Segment{Off: at + s.Off, Len: s.Len})
			}
		}
	}
	return dst
}

// scatter copies dense, in layout order, into the runs of count consecutive
// instances of d in sparse, or with pack the other way.
func (d *derived) scatter(dense, sparse []byte, count int, pack bool) {
	pos := int64(0)
	for i := 0; i < count; i++ {
		for r, at := 0, int64(i)*d.extent; r < d.count; r, at = r+1, at+d.stride {
			for _, s := range d.block {
				to, from := sparse[at+s.Off:at+s.End()], dense[pos:pos+s.Len]
				if pack {
					to, from = from, to
				}
				copy(to, from)
				pos += s.Len
			}
		}
	}
}

// Contiguous builds MPI_Type_contiguous: count repetitions of base laid
// end to end.
func Contiguous(count int, base Type) (Type, error) {
	if count < 0 {
		return nil, fmt.Errorf("datatype: Contiguous count %d < 0", count)
	}
	return strided(func() string { return fmt.Sprintf("contig(%d,%s)", count, base) },
		Flatten(base, 1, 0), count, base.Extent(), int64(count)*base.Extent()), nil
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
	return strided(func() string { return fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, base) },
		Flatten(base, blocklen, 0), count, int64(stride)*base.Extent(), ext), nil
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
	n := len(blocklens)
	t.(*derived).name = func() string { return fmt.Sprintf("indexed(%d,%s)", n, base) }
	return t, nil
}

// Hindexed builds MPI_Type_create_hindexed with byte-granular blocks:
// block i spans [displs[i], displs[i]+blocklens[i]) bytes. This is the form
// TCIO uses to combine a level-1 buffer's cached blocks into one transfer.
//
// The layout is canonicalized by coalescing, so bytes covered by several
// overlapping blocks appear — and are counted by Size — exactly once. (MPI
// proper would pack such bytes repeatedly; here Size, Flatten, Pack, and
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
	n := len(blocklens)
	return strided(func() string { return fmt.Sprintf("hindexed(%d)", n) }, Coalesce(segs), 1, 0, ext), nil
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
	n := len(types)
	return strided(func() string { return fmt.Sprintf("struct(%d)", n) }, Coalesce(segs), 1, 0, ext), nil
}

// Resized returns a copy of t with a new extent (MPI_Type_create_resized),
// used to pad or shrink the stride between flattened instances.
func Resized(t Type, extent int64) (Type, error) {
	if extent < 0 {
		return nil, fmt.Errorf("datatype: Resized extent %d < 0", extent)
	}
	d := *t.(*derived)
	d.name, d.extent = func() string { return fmt.Sprintf("resized(%s,%d)", t, extent) }, extent
	return &d, nil
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

// reach is how many bytes from offset 0 count instances of t touch: count
// extents, or more when the last instance's runs end past its extent (a
// type resized below its span).
func reach(t Type, count int) int64 {
	d := t.(*derived)
	need := int64(count) * d.extent
	if count > 0 && d.count > 0 && len(d.block) > 0 {
		need = max(need, int64(count-1)*d.extent+int64(d.count-1)*d.stride+d.block[len(d.block)-1].End())
	}
	return need
}

// Pack gathers count instances of t from src into a dense byte slice.
// src must cover count*t.Extent() bytes, and every byte the instances touch.
func Pack(src []byte, t Type, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("datatype: Pack of %d elements", count)
	}
	if need := reach(t, count); int64(len(src)) < need {
		return nil, fmt.Errorf("datatype: Pack needs %d bytes of source, have %d", need, len(src))
	}
	dst := make([]byte, int64(count)*t.Size())
	t.(*derived).scatter(dst, src, count, true)
	return dst, nil
}

// Unpack scatters a dense byte slice into count instances of t inside dst.
// data must hold exactly count*t.Size() bytes and dst must cover
// count*t.Extent() bytes, and every byte the instances touch.
func Unpack(data, dst []byte, t Type, count int) error {
	if count < 0 {
		return fmt.Errorf("datatype: Unpack of %d elements", count)
	}
	if int64(len(data)) != int64(count)*t.Size() {
		return fmt.Errorf("datatype: Unpack data %d bytes, want %d", len(data), int64(count)*t.Size())
	}
	if need := reach(t, count); int64(len(dst)) < need {
		return fmt.Errorf("datatype: Unpack needs %d bytes of destination, have %d", need, len(dst))
	}
	t.(*derived).scatter(data, dst, count, false)
	return nil
}
