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
