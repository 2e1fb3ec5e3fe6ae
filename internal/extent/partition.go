package extent

// Partition splits the half-open interval [Lo, Hi) into N equal contiguous
// domains — OCIO's aggregator file domains (paper §III.A): domain k is
// [Lo + k*size, Lo + (k+1)*size) clipped to Hi, with size = ceil((Hi-Lo)/N).
// The zero value is an empty partition.
type Partition struct {
	Lo, Hi int64
	N      int
	size   int64
}

// NewPartition builds the equal-size partition of [lo, hi) into n domains.
// n < 1 yields an empty partition; hi <= lo yields n empty domains.
func NewPartition(lo, hi int64, n int) Partition {
	p := Partition{Lo: lo, Hi: hi, N: n}
	if n > 0 && hi > lo {
		p.size = (hi - lo + int64(n) - 1) / int64(n)
	}
	return p
}

// Domain returns the k-th domain as an extent (possibly empty).
func (p Partition) Domain(k int) Extent {
	if p.size == 0 {
		return Extent{Off: p.Hi}
	}
	lo := min(p.Lo+int64(k)*p.size, p.Hi)
	return Extent{Off: lo, Len: min(lo+p.size, p.Hi) - lo}
}

// Clip locates the domain owning byte off, its index clamped to [0, N-1],
// and clips [off, end) to that domain's upper bound, returning the domain
// index and the clipped end.
func (p Partition) Clip(off, end int64) (int, int64) {
	k := 0
	if p.size > 0 {
		k = int((off - p.Lo) / p.size)
	}
	k = min(max(k, 0), p.N-1)
	if hi := p.Domain(k).End(); end > hi && hi > off {
		end = hi
	}
	return k, end
}

// Owners is an owner map — Partition or Layout: Clip returns the unit owning
// byte off and clips [off, end) to that unit's upper bound.
type Owners interface {
	Clip(off, end int64) (int, int64)
}

// Cut is the one plan of every exchange that routes runs to their owners:
// it clips runs at the owner map's unit boundaries and appends the pieces to
// dst grouped by owner, so that owner k's are first[k] to first[k+1] of the
// returned list (first holds one entry per owner, plus one). The grouping is
// a stable counting sort: runs may come in any order and overlap, and each
// owner's pieces keep their input order. A dst without the room is replaced
// by one sized to the piece count.
func Cut[O Owners](o O, dst []Extent, first []int, runs []Extent) []Extent {
	clear(first)
	for _, r := range runs {
		for r.Len > 0 {
			k, end := o.Clip(r.Off, r.End())
			first[k+1]++
			r.Off, r.Len = end, r.End()-end
		}
	}
	// Prefix sums turn the counts into each owner's first slot.
	base := len(dst)
	first[0] = base
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	total := first[len(first)-1]
	if total > cap(dst) {
		dst = append(make([]Extent, 0, total), dst...)
	}
	dst = dst[:total]
	for _, r := range runs {
		for r.Len > 0 {
			k, end := o.Clip(r.Off, r.End())
			dst[first[k]] = Extent{Off: r.Off, Len: end - r.Off}
			first[k]++
			r.Off, r.Len = end, r.End()-end
		}
	}
	// Each owner's cursor now stands where the next owner's pieces begin.
	copy(first[1:], first)
	first[0] = base
	return dst
}
