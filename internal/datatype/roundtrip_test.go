package datatype

// Round-trip pins for the derived-type pack/unpack machinery against a
// naive bitmap copier, including block lists whose target regions overlap.
// The package canonicalizes layouts by coalescing (Size counts every
// covered byte exactly once — see the Hindexed doc comment), so the naive
// model is: mark the covered bytes of one instance, gather them in
// ascending offset order.

import (
	"bytes"
	"testing"
)

// naiveCovered returns the covered-byte bitmap of one instance of t, as
// long as its extent or its last run's end, whichever is further.
func naiveCovered(t Type) []bool {
	_, hi := spanOf(t)
	covered := make([]bool, max(t.Extent(), hi))
	for _, s := range Flatten(t, 1, 0) {
		for i := s.Off; i < s.End(); i++ {
			covered[i] = true
		}
	}
	return covered
}

// naivePack gathers count instances byte-by-byte through the bitmap.
func naivePack(src []byte, t Type, count int) []byte {
	covered := naiveCovered(t)
	var out []byte
	for i := 0; i < count; i++ {
		base := int64(i) * t.Extent()
		for off, c := range covered {
			if c {
				out = append(out, src[base+int64(off)])
			}
		}
	}
	return out
}

// naiveUnpack scatters dense data byte-by-byte through the bitmap.
func naiveUnpack(data, dst []byte, t Type, count int) {
	covered := naiveCovered(t)
	pos := 0
	for i := 0; i < count; i++ {
		base := int64(i) * t.Extent()
		for off, c := range covered {
			if c {
				dst[base+int64(off)] = data[pos]
				pos++
			}
		}
	}
}

func checkAgainstNaive(t *testing.T, typ Type, count int) {
	t.Helper()
	covered := naiveCovered(typ)
	var want int64
	for _, c := range covered {
		if c {
			want++
		}
	}
	if typ.Size() != want {
		t.Fatalf("%s: Size %d, bitmap covers %d bytes", typ, typ.Size(), want)
	}

	src := make([]byte, int64(count-1)*typ.Extent()+int64(len(covered)))
	for i := range src {
		src[i] = byte(37*i + 11)
	}
	packed, err := Pack(src, typ, count)
	if err != nil {
		t.Fatalf("%s: Pack: %v", typ, err)
	}
	if int64(len(packed)) != int64(count)*typ.Size() {
		t.Fatalf("%s: Pack produced %d bytes, Size*count = %d", typ, len(packed), int64(count)*typ.Size())
	}
	if naive := naivePack(src, typ, count); !bytes.Equal(packed, naive) {
		t.Fatalf("%s: Pack %v, naive copier %v", typ, packed, naive)
	}

	// Unpack into a poisoned destination: covered bytes must round-trip,
	// holes must keep their poison.
	dst := make([]byte, len(src))
	for i := range dst {
		dst[i] = 0xEE
	}
	if err := Unpack(packed, dst, typ, count); err != nil {
		t.Fatalf("%s: Unpack: %v", typ, err)
	}
	naiveDst := make([]byte, len(src))
	for i := range naiveDst {
		naiveDst[i] = 0xEE
	}
	naiveUnpack(packed, naiveDst, typ, count)
	if !bytes.Equal(dst, naiveDst) {
		t.Fatalf("%s: Unpack %v, naive copier %v", typ, dst, naiveDst)
	}
	for i := 0; i < count; i++ {
		base := int64(i) * typ.Extent()
		for off, c := range covered {
			got := dst[base+int64(off)]
			if c && got != src[base+int64(off)] {
				t.Fatalf("%s: covered byte %d did not round-trip", typ, base+int64(off))
			}
			if !c && got != 0xEE {
				t.Fatalf("%s: hole byte %d overwritten", typ, base+int64(off))
			}
		}
	}
}

func TestIndexedRoundTripVsNaive(t *testing.T) {
	cases := []struct {
		name      string
		blocklens []int
		displs    []int
		base      Type
	}{
		{"disjoint", []int{2, 3, 1}, []int{0, 4, 9}, Int},
		{"adjacent", []int{2, 2}, []int{0, 2}, Short},
		{"overlapping", []int{2, 3}, []int{0, 1}, Int},
		{"contained", []int{6, 2}, []int{0, 2}, Char},
		{"unordered-overlap", []int{3, 4, 2}, []int{5, 0, 3}, Short},
		{"zero-length-block", []int{2, 0, 2}, []int{0, 3, 5}, Int},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			typ, err := Indexed(tc.blocklens, tc.displs, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{1, 3} {
				checkAgainstNaive(t, typ, count)
			}
		})
	}
}

func TestHindexedOverlapSizeConsistency(t *testing.T) {
	// Two blocks sharing 4 bytes: the covered set is [0,12), so Size must
	// be 12 — not 16 — and Pack/Segments/Unpack must all describe it.
	typ, err := Hindexed([]int64{8, 8}, []int64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if typ.Size() != 12 {
		t.Fatalf("Size = %d, want 12 (overlapping bytes counted once)", typ.Size())
	}
	if segs := Flatten(typ, 1, 0); len(segs) != 1 || segs[0] != (Segment{Off: 0, Len: 12}) {
		t.Fatalf("Segments = %v, want one coalesced run [0,12)", segs)
	}
	checkAgainstNaive(t, typ, 2)
}

func TestStructOverlapRoundTrip(t *testing.T) {
	// A struct whose second field's region overlaps the first's tail.
	typ, err := Struct([]int{2, 2}, []int64{0, 6}, []Type{Int, Int})
	if err != nil {
		t.Fatal(err)
	}
	if typ.Size() != 14 { // [0,8) and [6,14) coalesce to [0,14)
		t.Fatalf("Size = %d, want 14", typ.Size())
	}
	checkAgainstNaive(t, typ, 2)
}

// TestOverlappingRepeatsSizeMatchesLayout: a Contiguous or Vector over a
// base resized below its span repeats it onto itself. The layout coalesces
// the overlap, and Size, Pack, Unpack and a view must count the same 12
// bytes, not 2 x 8.
func TestOverlappingRepeatsSizeMatchesLayout(t *testing.T) {
	folded, err := Resized(mustType(Contiguous(8, Byte)), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []Type{mustType(Vector(2, 1, 1, folded)), mustType(Contiguous(2, folded))} {
		if segs := Flatten(typ, 1, 0); len(segs) != 1 || segs[0] != (Segment{Off: 0, Len: 12}) {
			t.Fatalf("%s: Flatten = %v, want one run [0,12)", typ, segs)
		}
		checkAgainstNaive(t, typ, 1)
		v, err := NewView(0, typ)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if got := v.Runs(nil, 0, 12); len(got) != 1 || got[0] != (Segment{Off: 0, Len: 12}) {
			t.Fatalf("%s: Runs(0, 12) = %v, want one run [0,12)", typ, got)
		}
	}
}

func mustType(t Type, err error) Type {
	if err != nil {
		panic(err)
	}
	return t
}
