package extent

import (
	"math/rand"
	"reflect"
	"slices"
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
		// Every byte's Clip result owns it.
		for off := lo; off < hi; off++ {
			k, _ := p.Clip(off, off+1)
			d := p.Domain(k)
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

// clipAll cuts every run at the owner map's unit boundaries, as an exchange
// does piece by piece, and returns the pieces in input order with the owner
// Clip named for each.
func clipAll(clip func(off, end int64) (int, int64), runs []Extent) (pieces []Extent, owners []int) {
	for _, r := range runs {
		for off := r.Off; off < r.End(); {
			k, end := clip(off, r.End())
			if end <= off || end > r.End() {
				return nil, nil // no progress, or past the run
			}
			pieces, owners = append(pieces, Extent{Off: off, Len: end - off}), append(owners, k)
			off = end
		}
	}
	return pieces, owners
}

// TestPartitionSplitPreservesRuns pins Partition.Clip as OCIO's pack uses
// it: ascending coalesced runs — what a view yields — cut over the domains
// of their own span come out ascending, each piece inside its domain, with
// owners that never decrease (so each domain's pieces are one stretch of
// the cut list) and the same bytes.
func TestPartitionSplitPreservesRuns(t *testing.T) {
	prop := func(raw []uint16, rawN uint8) bool {
		n := int(rawN%6) + 1
		runs := Coalesce(randList(raw))
		if len(runs) == 0 {
			return true
		}
		p := NewPartition(runs[0].Off, runs[len(runs)-1].End(), n)
		pieces, owners := clipAll(p.Clip, runs)
		if pieces == nil {
			return false
		}
		for i, e := range pieces {
			d := p.Domain(owners[i])
			if e.Off < d.Off || e.End() > d.End() {
				return false // escaped its domain
			}
			if i > 0 && (owners[i] < owners[i-1] || e.Off < pieces[i-1].End()) {
				return false // out of order
			}
		}
		return bitmap(pieces) == bitmap(runs) && Total(pieces) == Total(runs)
	}
	if err := quick.Check(prop, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutCutPreservesRuns pins Layout.Clip, the delegate server's owner
// check, over unordered, overlapping runs: every piece lies in one segment,
// which the owner Clip names owns, and the pieces keep the runs' bytes.
func TestLayoutCutPreservesRuns(t *testing.T) {
	prop := func(raw []uint16, rawP, rawSeg uint8) bool {
		l := Layout{P: int(rawP%6) + 1, SegSize: int64(rawSeg%32) + 1}
		runs := randList(raw)
		pieces, owners := clipAll(l.Clip, runs)
		if pieces == nil && Total(runs) > 0 {
			return false
		}
		for i, e := range pieces {
			seg := l.Segment(e.Off)
			if owner, _ := l.Owner(seg); owner != owners[i] || l.Segment(e.End()-1) != seg {
				return false
			}
		}
		return bitmap(pieces) == bitmap(runs) && Total(pieces) == Total(runs)
	}
	if err := quick.Check(prop, quickCfg(8)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutPiecesTileTheAccess: the piece walk visits [off, off+n) in
// order, one segment per piece, each with its displacement (equation (3))
// and its position in the access — the cut Clip makes, one piece at a time.
func TestLayoutPiecesTileTheAccess(t *testing.T) {
	prop := func(rawOff, rawN uint16, rawP, rawSeg uint8) bool {
		l := Layout{P: int(rawP%6) + 1, SegSize: int64(rawSeg%32) + 1}
		off, n := int64(rawOff), int64(rawN%512)
		next := int64(0)
		ok := true
		err := l.Pieces(off, n, func(seg, disp, at, m int64) error {
			_, end := l.Clip(off+at, off+n)
			ok = ok && at == next && m > 0 && end == off+at+m &&
				seg == l.Segment(off+at) && disp == off+at-l.SegStart(seg)
			next = at + m
			return nil
		})
		return err == nil && ok && next == n
	}
	if err := quick.Check(prop, quickCfg(9)); err != nil {
		t.Fatal(err)
	}
}

// TestRunWireRoundTrip pins the one run codec every layer ships: 16 bytes
// per run, little-endian offset then length, appended in place when dst has
// the room, and decoded whole records only, onto what dst already holds.
func TestRunWireRoundTrip(t *testing.T) {
	runs := []Extent{{Off: 1, Len: 2}, {Off: 1 << 40, Len: 3}, {Off: -1, Len: 0}}
	slot := make([]byte, 4+RunWire*len(runs))
	b := AppendRuns(slot[:4], runs)
	if &b[0] != &slot[0] || len(b) != len(slot) {
		t.Fatalf("AppendRuns left a slot with room: %d bytes, moved=%v", len(b), &b[0] != &slot[0])
	}
	prior := []Extent{{Off: 7, Len: 7}}
	got, err := DecodeRuns(prior, b[4:])
	if err != nil || !slices.Equal(got, append(prior, runs...)) {
		t.Errorf("DecodeRuns = %v, %v; want %v after %v", got, err, runs, prior)
	}
	if want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}; !reflect.DeepEqual(b[4:4+RunWire], want) {
		t.Errorf("wire bytes = %v, want %v", b[4:4+RunWire], want)
	}
	for _, n := range []int{1, RunWire - 1, RunWire + 1, len(b) - 5} {
		if got, err := DecodeRuns(prior, b[4:4+n]); err == nil || !slices.Equal(got, prior) {
			t.Errorf("a %d-byte list decoded to %v, %v; want an error and dst untouched", n, got, err)
		}
	}
}
