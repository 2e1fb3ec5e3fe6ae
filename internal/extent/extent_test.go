package extent

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// universe is the byte universe of the bitmap cross-checks: small enough to
// enumerate, large enough to exercise merging, holes, and boundaries.
const universe = 512

// quickCfg returns a deterministic testing/quick configuration (seedcheck
// rule: no package-level math/rand).
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
}

// randList decodes raw fuzz values into a run list inside the universe.
func randList(raw []uint16) []Extent {
	out := make([]Extent, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		off := int64(raw[i] % universe)
		length := int64(raw[i+1] % 64)
		out = append(out, Extent{Off: off, Len: length})
	}
	return out
}

// bitmap marks every byte covered by the list.
func bitmap(list []Extent) [universe + 64]bool {
	var m [universe + 64]bool
	for _, e := range list {
		for b := e.Off; b < e.End(); b++ {
			m[b] = true
		}
	}
	return m
}

// wellFormed checks the canonical-form invariants of a coalesced list:
// sorted, strictly separated (no adjacency), no empty runs.
func wellFormed(list []Extent) bool {
	for i, e := range list {
		if e.Len <= 0 {
			return false
		}
		if i > 0 && list[i-1].End() >= e.Off {
			return false
		}
	}
	return true
}

func TestCoalesceMatchesBitmap(t *testing.T) {
	prop := func(raw []uint16) bool {
		list := randList(raw)
		want := bitmap(list)
		got := Coalesce(list)
		return wellFormed(got) && bitmap(got) == want
	}
	if err := quick.Check(prop, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceIdempotent(t *testing.T) {
	prop := func(raw []uint16) bool {
		once := Coalesce(randList(raw))
		twice := Coalesce(append([]Extent(nil), once...))
		if len(once) == 0 {
			return len(twice) == 0
		}
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(prop, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

// TestSubtractMatchesBitmap pins Subtract against the byte-set model: a
// byte is in Subtract(a, b) exactly when it is in a and not in b, and the
// result is well formed.
func TestSubtractMatchesBitmap(t *testing.T) {
	prop := func(rawA, rawB []uint16) bool {
		a, b := randList(rawA), randList(rawB)
		ma, mb := bitmap(a), bitmap(b)
		sub := Subtract(a, b)
		if !wellFormed(sub) {
			return false
		}
		ms := bitmap(sub)
		for x := range ma {
			if ms[x] != (ma[x] && !mb[x]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAtPreservesCoverageAndBoundaries(t *testing.T) {
	prop := func(raw []uint16, g uint8) bool {
		gran := int64(g%32) + 1
		list := randList(raw)
		want := bitmap(list)
		split := SplitAt(list, gran)
		for _, e := range split {
			if e.Len <= 0 || e.Off/gran != (e.End()-1)/gran {
				return false // crosses a granularity boundary
			}
		}
		return bitmap(split) == want
	}
	if err := quick.Check(prop, quickCfg(4)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutRoundTrip checks that equations (1)-(3) and their inverse agree
// for random offsets: Locate distributes segments round-robin and Offset
// reconstructs the original offset.
func TestLayoutRoundTrip(t *testing.T) {
	prop := func(rawOff uint32, rawP, rawSeg uint8) bool {
		l := Layout{
			P:       int(rawP%64) + 1,
			SegSize: int64(rawSeg%128) + 1,
			NumSeg:  64,
		}
		off := int64(rawOff)
		rank, slot, disp := l.Locate(off)
		// Equations (1)-(3) verbatim.
		seg := off / l.SegSize
		if rank != int(seg%int64(l.P)) || slot != seg/int64(l.P) || disp != off%l.SegSize {
			return false
		}
		// Owner agrees with Locate, and SegStart places the segment.
		or, os := l.Owner(seg)
		if or != rank || os != slot || l.Segment(off) != seg {
			return false
		}
		return l.SegStart(seg)+disp == off
	}
	if err := quick.Check(prop, quickCfg(5)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutTilesCapacity walks every offset of a small layout and checks
// the mapping is a bijection onto (rank, slot, disp) triples.
func TestLayoutTilesCapacity(t *testing.T) {
	l := Layout{P: 3, SegSize: 8, NumSeg: 4}
	seen := make(map[[3]int64]bool)
	for off := int64(0); off < l.Capacity(); off++ {
		rank, slot, disp := l.Locate(off)
		if !l.InRange(l.Segment(off)) {
			t.Fatalf("offset %d out of range", off)
		}
		key := [3]int64{int64(rank), slot, disp}
		if seen[key] {
			t.Fatalf("offset %d collides at %v", off, key)
		}
		seen[key] = true
	}
	if len(seen) != int(l.Capacity()) {
		t.Fatalf("mapped %d of %d offsets", len(seen), l.Capacity())
	}
	if l.InRange(l.Segment(l.Capacity())) {
		t.Fatal("capacity boundary mapped in range")
	}
	if seg := l.RankSegment(2, 3); seg != 11 {
		t.Fatalf("RankSegment(2,3) = %d", seg)
	}
}

func TestPartitionDomainsTile(t *testing.T) {
	prop := func(rawLo uint16, rawSpan uint16, rawN uint8) bool {
		lo := int64(rawLo)
		hi := lo + int64(rawSpan)
		n := int(rawN%8) + 1
		p := NewPartition(lo, hi, n)
		// Domains are contiguous, ordered, and exactly tile [lo, hi).
		cur := lo
		for k := 0; k < p.N; k++ {
			d := p.Domain(k)
			if d.Len < 0 || (d.Len > 0 && d.Off != cur) {
				return false
			}
			cur = max(cur, d.End())
		}
		if hi > lo && cur != hi {
			return false
		}
		// Every byte's Find result owns it.
		for off := lo; off < hi; off++ {
			d := p.Domain(p.Find(off))
			if off < d.Off || off >= d.End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(6)); err != nil {
		t.Fatal(err)
	}
}

// refSplit is the per-domain split Cut replaced, kept as its oracle: cut
// runs at domain boundaries and deal the pieces to one list per domain.
func refSplit(p Partition, runs []Extent) [][]Extent {
	out := make([][]Extent, p.N)
	for _, r := range runs {
		for r.Len > 0 {
			k, end := p.Clip(r.Off, r.End())
			piece := Extent{Off: r.Off, Len: end - r.Off}
			out[k] = append(out[k], piece)
			r.Off += piece.Len
			r.Len -= piece.Len
		}
	}
	return out
}

func TestPartitionSplitPreservesRuns(t *testing.T) {
	prop := func(raw []uint16, rawN uint8, reuse bool) bool {
		n := int(rawN%6) + 1
		runs := Coalesce(randList(raw))
		var lo, hi int64
		if len(runs) > 0 {
			lo, hi = runs[0].Off, runs[len(runs)-1].End()
		}
		p := NewPartition(lo, hi, n)
		var dst []Extent
		if reuse {
			dst = make([]Extent, 3, 4)[:0] // scratch that has to grow
		}
		first := make([]int, n+1)
		flat := p.Cut(dst, first, runs)
		if !reuse && cap(flat) != len(flat) {
			return false // a fresh list is sized to the piece count
		}
		if first[0] != 0 || first[n] != len(flat) {
			return false
		}
		for k, want := range refSplit(p, runs) {
			part := flat[first[k]:first[k+1]]
			if len(part) != len(want) || (len(want) > 0 && !reflect.DeepEqual(part, want)) {
				return false
			}
			d := p.Domain(k)
			for _, e := range part {
				if e.Off < d.Off || e.End() > d.End() {
					return false // piece escaped its domain
				}
			}
		}
		return bitmap(flat) == bitmap(runs) && Total(flat) == Total(runs)
	}
	if err := quick.Check(prop, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}

func TestCoversSpanSubtractEdges(t *testing.T) {
	if !Covers(nil, 5, 5) {
		t.Fatal("empty interval not covered")
	}
	if Covers(nil, 0, 1) {
		t.Fatal("nil list covers bytes")
	}
	if !Covers([]Extent{{0, 4}, {4, 4}}, 1, 7) {
		t.Fatal("adjacent runs do not cover")
	}
	if got := Subtract([]Extent{{0, 10}}, nil); !reflect.DeepEqual(got, []Extent{{0, 10}}) {
		t.Fatalf("Subtract identity = %v", got)
	}
	if got := SplitAt([]Extent{{3, 10}}, 4); !reflect.DeepEqual(got, []Extent{{3, 1}, {4, 4}, {8, 4}, {12, 1}}) {
		t.Fatalf("SplitAt = %v", got)
	}
}

// TestRunWireRoundTrip pins the one run codec every layer frames: 16 bytes
// per run, little-endian offset then length, appended in place when dst has
// the room.
func TestRunWireRoundTrip(t *testing.T) {
	runs := []Extent{{Off: 1, Len: 2}, {Off: 1 << 40, Len: 3}, {Off: -1, Len: 0}}
	slot := make([]byte, 4+RunWire*len(runs))
	b := AppendRuns(slot[:4], runs)
	if &b[0] != &slot[0] || len(b) != len(slot) {
		t.Fatalf("AppendRuns left a slot with room: %d bytes, moved=%v", len(b), &b[0] != &slot[0])
	}
	for i, want := range runs {
		if got := RunAt(b[4:], i); got != want {
			t.Errorf("run %d = %v, want %v", i, got, want)
		}
	}
	if want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}; !reflect.DeepEqual(b[4:4+RunWire], want) {
		t.Errorf("wire bytes = %v, want %v", b[4:4+RunWire], want)
	}
}
