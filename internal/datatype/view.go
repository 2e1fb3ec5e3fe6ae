package datatype

import (
	"fmt"
	"sort"

	"github.com/tcio/tcio/internal/mutate"
)

// View is a file view (MPI_File_set_view): the visible bytes of a file are
// those selected by tiling one filetype from a byte displacement. It is the
// streaming form of Flatten — Runs maps a visible byte range to absolute
// file runs at a cost proportional to the runs it returns, not to the bytes
// or the filetype instances the range covers (ROMIO's flattened
// offset-length list, walked by a cursor instead of rebuilt per request).
type View struct {
	disp   int64
	size   int64     // visible bytes per filetype instance
	extent int64     // stride between instances
	segs   []Segment // one instance's runs
	// prefix[i] = visible bytes of an instance before segs[i]. A uniform
	// filetype, every segment seglen bytes long (a Vector or Subarray of a
	// contiguous etype), keeps no table: prefix[i] is i*seglen.
	prefix []int64
	seglen int64

	// dense: the filetype has no holes, so the view is the identity shifted
	// by disp. ordered: runs come out sorted and disjoint when instances are
	// walked in view order; otherwise instances interleave or overlap and
	// Runs sorts and merges what it walked.
	dense   bool
	ordered bool
}

// NewView builds the view that tiles filetype from byte displacement disp.
func NewView(disp int64, filetype Type) (*View, error) {
	if disp < 0 {
		return nil, fmt.Errorf("datatype: negative view displacement %d", disp)
	}
	if filetype.Size() <= 0 {
		return nil, fmt.Errorf("datatype: view over empty filetype %s", filetype)
	}
	v := &View{
		disp:    disp,
		size:    filetype.Size(),
		extent:  filetype.Extent(),
		segs:    filetype.Segments(),
		seglen:  filetype.Segments()[0].Len,
		ordered: true,
	}
	var seen, end int64
	for i, s := range v.segs {
		if s.Len <= 0 {
			return nil, fmt.Errorf("datatype: filetype %s has empty segment %d", filetype, i)
		}
		if s.Len != v.seglen {
			v.seglen = 0
		}
		seen += s.Len
		if i > 0 && s.Off < end {
			v.ordered = false
		}
		end = s.End()
	}
	if seen != v.size {
		return nil, fmt.Errorf("datatype: filetype %s has %d segment bytes but size %d", filetype, seen, v.size)
	}
	if v.seglen == 0 {
		v.prefix = make([]int64, len(v.segs))
		for i := 1; i < len(v.segs); i++ {
			v.prefix[i] = v.prefix[i-1] + v.segs[i-1].Len
		}
	}
	if v.extent < end-v.segs[0].Off {
		v.ordered = false
	}
	v.dense = len(v.segs) == 1 && v.segs[0].Off == 0 && v.size == v.extent
	return v, nil
}

// segmentAt returns the index of the segment holding visible byte b of an
// instance, the last one with prefix <= b, and b's offset in it.
func (v *View) segmentAt(b int64) (int, int64) {
	if v.seglen > 0 {
		return int(b / v.seglen), b % v.seglen
	}
	i := sort.Search(len(v.segs), func(k int) bool { return v.prefix[k] > b }) - 1
	return i, b - v.prefix[i]
}

// Runs appends to dst the absolute file runs holding the n visible bytes
// at visible offset pos, sorted by offset with adjacent runs merged, and
// returns the extended slice. Callers that keep dst as scratch between
// calls allocate nothing once it has grown to their widest request. A
// negative pos or n selects nothing.
//
// When filetype instances overlap (a type resized below its span), bytes
// selected twice appear once, so the runs may total less than n.
func (v *View) Runs(dst []Segment, pos, n int64) []Segment {
	if n <= 0 || pos < 0 {
		return dst
	}
	start := len(dst)
	if v.dense {
		return append(dst, Segment{Off: v.disp + pos, Len: n})
	}
	inst := pos / v.size
	i, skip := v.segmentAt(pos % v.size)
	if cap(dst) == 0 {
		// A handle's first request sizes its scratch to the walk's piece
		// count (an upper bound: abutting pieces merge) instead of doubling
		// up to it. One collective call per handle is the whole of
		// synth-ocio, where this is 37 MB of its 650 MB per rep.
		last := pos + n - 1
		j, _ := v.segmentAt(last % v.size)
		dst = make([]Segment, 0, int(last/v.size-inst)*len(v.segs)+j-i+1)
	}
	for base := v.disp + inst*v.extent; n > 0; base += v.extent {
		for ; i < len(v.segs) && n > 0; i++ {
			run := Segment{Off: base + v.segs[i].Off + skip, Len: min(v.segs[i].Len-skip, n)}
			skip = 0
			n -= run.Len
			if tail := len(dst) - 1; tail >= start && dst[tail].End() == run.Off {
				dst[tail].Len += run.Len
				continue
			}
			dst = append(dst, run)
		}
		i = 0
	}
	if !v.ordered {
		dst = dst[:start+len(Coalesce(dst[start:]))]
	}
	if mutate.Enabled(mutate.MPIIOFlattenDropRun) && len(dst)-start > 1 {
		dst = append(dst[:start], dst[start+1:]...)
	}
	return dst
}
