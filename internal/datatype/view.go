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
	disp int64
	// ft is the filetype in its own form, walked by arithmetic: one
	// instance is ft.block repeated ft.count times, ft.stride bytes apart.
	ft *derived
	// prefix[j] = visible bytes of a repeat before block[j]. A uniform
	// block, every run seglen bytes long (a Vector or Subarray of a
	// contiguous etype), keeps no table: prefix[j] is j*seglen.
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
	ft := filetype.(*derived)
	v := &View{disp: disp, ft: ft, seglen: ft.block[0].Len}
	for _, s := range ft.block {
		if s.Len != v.seglen {
			v.seglen = 0
		}
	}
	if v.seglen == 0 {
		v.prefix = make([]int64, len(ft.block))
		for j := 1; j < len(ft.block); j++ {
			v.prefix[j] = v.prefix[j-1] + ft.block[j-1].Len
		}
	}
	end := ft.block[len(ft.block)-1].End() + int64(ft.count-1)*ft.stride
	v.ordered = end-ft.block[0].Off <= ft.extent
	v.dense = ft.count == 1 && len(ft.block) == 1 && ft.block[0].Off == 0 && ft.size == ft.extent
	return v, nil
}

// segmentAt returns where visible byte b of an instance lies: its repeat,
// the block run holding it (the last one with prefix <= b's offset in the
// repeat), and its offset in that run.
func (v *View) segmentAt(b int64) (r, j int, skip int64) {
	bsize := v.ft.size / int64(v.ft.count)
	r, b = int(b/bsize), b%bsize
	if v.seglen > 0 {
		return r, int(b / v.seglen), b % v.seglen
	}
	j = sort.Search(len(v.ft.block), func(k int) bool { return v.prefix[k] > b }) - 1
	return r, j, b - v.prefix[j]
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
	ft, block := v.ft, v.ft.block
	inst := pos / ft.size
	r, j, skip := v.segmentAt(pos % ft.size)
	if cap(dst) == 0 {
		// A handle's first request sizes its scratch to the walk's piece
		// count (an upper bound: abutting pieces merge) instead of doubling
		// up to it. One collective call per handle is the whole of
		// synth-ocio.
		last := pos + n - 1
		lr, lj, _ := v.segmentAt(last % ft.size)
		b := len(block)
		dst = make([]Segment, 0, int(last/ft.size-inst)*ft.count*b+(lr-r)*b+lj-j+1)
	}
	base := v.disp + inst*ft.extent
	for at := base + int64(r)*ft.stride; n > 0; {
		run := Segment{Off: at + block[j].Off + skip, Len: min(block[j].Len-skip, n)}
		skip, n = 0, n-run.Len
		if tail := len(dst) - 1; tail >= start && dst[tail].End() == run.Off {
			dst[tail].Len += run.Len
		} else {
			dst = append(dst, run)
		}
		if j++; j == len(block) { // the next repeat, or the next instance
			j, r, at = 0, r+1, at+ft.stride
			if r == ft.count {
				r, base = 0, base+ft.extent
				at = base
			}
		}
	}
	if !v.ordered {
		dst = dst[:start+len(Coalesce(dst[start:]))]
	}
	if mutate.Enabled(mutate.MPIIOFlattenDropRun) && len(dst)-start > 1 {
		dst = append(dst[:start], dst[start+1:]...)
	}
	return dst
}
