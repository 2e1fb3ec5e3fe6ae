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
	lo := p.Lo + int64(k)*p.size
	hi := lo + p.size
	if lo > p.Hi {
		lo = p.Hi
	}
	if hi > p.Hi {
		hi = p.Hi
	}
	return Extent{Off: lo, Len: hi - lo}
}

// Find returns the index of the domain owning byte off, clamped to [0, N-1].
func (p Partition) Find(off int64) int {
	k := 0
	if p.size > 0 {
		k = int((off - p.Lo) / p.size)
	}
	if k < 0 {
		k = 0
	}
	if k >= p.N {
		k = p.N - 1
	}
	return k
}

// Clip locates the domain owning byte off and clips [off, end) to that
// domain's upper bound, returning the domain index and the clipped end.
func (p Partition) Clip(off, end int64) (int, int64) {
	k := p.Find(off)
	if hi := p.Domain(k).End(); end > hi && hi > off {
		end = hi
	}
	return k, end
}

// Cut clips ascending runs at domain boundaries and appends the pieces to
// dst, which it returns. Ascending input makes the pieces come out grouped
// by owning domain, so one flat list and an index replace a list per
// domain: Cut fills first, which must hold N+1 entries, so that domain k
// owns pieces first[k] to first[k+1] of the returned list. A dst without
// storage is sized to the piece count — one per run plus one per boundary a
// run crosses — instead of doubling up to it.
func (p Partition) Cut(dst []Extent, first []int, runs []Extent) []Extent {
	if cap(dst) == 0 {
		n := len(runs)
		for _, r := range runs {
			if r.Len > 0 {
				n += p.Find(r.End()-1) - p.Find(r.Off)
			}
		}
		dst = make([]Extent, 0, n)
	}
	k := 0
	first[0] = len(dst)
	for _, r := range runs {
		for r.Len > 0 {
			owner, end := p.Clip(r.Off, r.End())
			for ; k < owner; k++ {
				first[k+1] = len(dst)
			}
			dst = append(dst, Extent{Off: r.Off, Len: end - r.Off})
			r.Off, r.Len = end, r.End()-end
		}
	}
	for ; k < p.N; k++ {
		first[k+1] = len(dst)
	}
	return dst
}
