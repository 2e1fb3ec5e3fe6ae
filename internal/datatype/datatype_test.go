package datatype

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicTypes(t *testing.T) {
	cases := []struct {
		t    Type
		size int64
	}{
		{Byte, 1}, {Char, 1}, {Short, 2}, {Int, 4}, {Float, 4}, {Double, 8}, {Long, 8},
	}
	for _, c := range cases {
		if c.t.Size() != c.size || c.t.Extent() != c.size {
			t.Errorf("%s: size/extent = %d/%d, want %d", c.t, c.t.Size(), c.t.Extent(), c.size)
		}
		segs := c.t.Segments()
		if len(segs) != 1 || segs[0] != (Segment{Off: 0, Len: c.size}) {
			t.Errorf("%s: segments = %v", c.t, segs)
		}
	}
}

func TestByName(t *testing.T) {
	for code, want := range map[string]Type{
		"c": Char, "s": Short, "i": Int, "f": Float, "d": Double, "b": Byte, "l": Long,
	} {
		got, err := ByName(code)
		if err != nil || got != want {
			t.Errorf("ByName(%q) = %v, %v", code, got, err)
		}
	}
	if _, err := ByName("x"); err == nil {
		t.Fatal("ByName(x) should fail")
	}
	if got, err := ByName(" i "); err != nil || got != Int {
		t.Fatal("ByName should trim spaces")
	}
}

func TestContiguous(t *testing.T) {
	ct, err := Contiguous(3, Int)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Size() != 12 || ct.Extent() != 12 {
		t.Fatalf("size/extent = %d/%d", ct.Size(), ct.Extent())
	}
	// Adjacent ints coalesce into one run.
	if segs := ct.Segments(); !reflect.DeepEqual(segs, []Segment{{Off: 0, Len: 12}}) {
		t.Fatalf("segments = %v", segs)
	}
	if _, err := Contiguous(-1, Int); err == nil {
		t.Fatal("negative count should fail")
	}
}

func TestVectorMatchesPaperExample(t *testing.T) {
	// The paper's file view (§III.B): etype = one int + one double (12 B),
	// filetype = vector with stride num_procs etypes. With 2 processes:
	// blocks at 0 and 24.
	etype, err := Struct([]int{1, 1}, []int64{0, 4}, []Type{Int, Double})
	if err != nil {
		t.Fatal(err)
	}
	if etype.Size() != 12 || etype.Extent() != 12 {
		t.Fatalf("etype size/extent = %d/%d, want 12/12", etype.Size(), etype.Extent())
	}
	ft, err := Vector(3, 1, 2, etype)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{Off: 0, Len: 12}, {Off: 24, Len: 12}, {Off: 48, Len: 12}}
	if !reflect.DeepEqual(ft.Segments(), want) {
		t.Fatalf("segments = %v, want %v", ft.Segments(), want)
	}
	if ft.Size() != 36 {
		t.Fatalf("size = %d, want 36", ft.Size())
	}
	if ft.Extent() != 60 { // (3-1)*2*12 + 1*12
		t.Fatalf("extent = %d, want 60", ft.Extent())
	}
}

func TestVectorErrors(t *testing.T) {
	if _, err := Vector(-1, 1, 2, Int); err == nil {
		t.Fatal("negative count")
	}
	if _, err := Vector(2, 3, 2, Int); err == nil {
		t.Fatal("blocklen > stride with count > 1 must fail")
	}
	// Single block may exceed stride (stride unused).
	if _, err := Vector(1, 3, 2, Int); err != nil {
		t.Fatalf("count=1 should allow blocklen>stride: %v", err)
	}
	// Empty vector is legal.
	v, err := Vector(0, 1, 2, Int)
	if err != nil || v.Size() != 0 || v.Extent() != 0 {
		t.Fatalf("empty vector: %v size=%d", err, v.Size())
	}
}

func TestIndexed(t *testing.T) {
	it, err := Indexed([]int{2, 1}, []int{0, 4}, Int)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{Off: 0, Len: 8}, {Off: 16, Len: 4}}
	if !reflect.DeepEqual(it.Segments(), want) {
		t.Fatalf("segments = %v, want %v", it.Segments(), want)
	}
	if it.Size() != 12 {
		t.Fatalf("size = %d", it.Size())
	}
	if _, err := Indexed([]int{1}, []int{0, 1}, Int); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := Indexed([]int{-1}, []int{0}, Int); err == nil {
		t.Fatal("negative blocklen should fail")
	}
}

func TestHindexed(t *testing.T) {
	ht, err := Hindexed([]int64{5, 3, 0}, []int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{Off: 10, Len: 5}, {Off: 20, Len: 3}}
	if !reflect.DeepEqual(ht.Segments(), want) {
		t.Fatalf("segments = %v, want %v", ht.Segments(), want)
	}
	if ht.Size() != 8 || ht.Extent() != 23 {
		t.Fatalf("size/extent = %d/%d, want 8/23", ht.Size(), ht.Extent())
	}
	if _, err := Hindexed([]int64{1}, []int64{-1}); err == nil {
		t.Fatal("negative displacement should fail")
	}
}

func TestHindexedMergesAdjacent(t *testing.T) {
	ht, err := Hindexed([]int64{4, 4}, []int64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if segs := ht.Segments(); !reflect.DeepEqual(segs, []Segment{{Off: 0, Len: 8}}) {
		t.Fatalf("adjacent blocks not merged: %v", segs)
	}
}

func TestStruct(t *testing.T) {
	st, err := Struct([]int{1, 2}, []int64{0, 8}, []Type{Double, Int})
	if err != nil {
		t.Fatal(err)
	}
	// double at [0,8), two ints at [8,16) -> one merged run.
	if segs := st.Segments(); !reflect.DeepEqual(segs, []Segment{{Off: 0, Len: 16}}) {
		t.Fatalf("segments = %v", segs)
	}
	if st.Size() != 16 || st.Extent() != 16 {
		t.Fatalf("size/extent = %d/%d", st.Size(), st.Extent())
	}
	if _, err := Struct([]int{1}, []int64{0, 1}, []Type{Int, Int}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestResized(t *testing.T) {
	rt, err := Resized(Int, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Extent() != 16 || rt.Size() != 4 {
		t.Fatalf("size/extent = %d/%d", rt.Size(), rt.Extent())
	}
	segs := Flatten(rt, 2, 0)
	want := []Segment{{Off: 0, Len: 4}, {Off: 16, Len: 4}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("flatten = %v, want %v", segs, want)
	}
	if _, err := Resized(Int, -1); err == nil {
		t.Fatal("negative extent should fail")
	}
}

func TestCoalesce(t *testing.T) {
	in := []Segment{{Off: 10, Len: 5}, {Off: 0, Len: 5}, {Off: 5, Len: 5}, {Off: 30, Len: 0}, {Off: 20, Len: 3}, {Off: 21, Len: 1}}
	got := Coalesce(in)
	want := []Segment{{Off: 0, Len: 15}, {Off: 20, Len: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Coalesce = %v, want %v", got, want)
	}
}

func TestFlattenBaseOffset(t *testing.T) {
	v, _ := Vector(2, 1, 2, Int)
	got := Flatten(v, 2, 100)
	// instance extent = (2-1)*2*4+4 = 12; blocks at 100,108, 112,120.
	want := []Segment{{Off: 100, Len: 4}, {Off: 108, Len: 8}, {Off: 120, Len: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v, want %v", got, want)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	etype, _ := Struct([]int{1, 1}, []int64{0, 4}, []Type{Int, Double})
	v, _ := Vector(4, 1, 3, etype)
	const count = 2
	src := make([]byte, count*int(v.Extent()))
	for i := range src {
		src[i] = byte(i)
	}
	packed, err := Pack(src, v, count)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(packed)) != count*v.Size() {
		t.Fatalf("packed %d bytes, want %d", len(packed), count*v.Size())
	}
	dst := make([]byte, len(src))
	if err := Unpack(packed, dst, v, count); err != nil {
		t.Fatal(err)
	}
	// Every byte covered by the layout must round-trip.
	for _, s := range Flatten(v, count, 0) {
		if !bytes.Equal(dst[s.Off:s.Off+s.Len], src[s.Off:s.Off+s.Len]) {
			t.Fatalf("segment %+v did not round-trip", s)
		}
	}
}

func TestPackUnpackErrors(t *testing.T) {
	if _, err := Pack(make([]byte, 3), Int, 1); err == nil {
		t.Fatal("short source should fail")
	}
	if err := Unpack(make([]byte, 3), make([]byte, 8), Int, 1); err == nil {
		t.Fatal("wrong data length should fail")
	}
	if err := Unpack(make([]byte, 4), make([]byte, 2), Int, 1); err == nil {
		t.Fatal("short destination should fail")
	}
}

// Property: for random hindexed layouts, Flatten segments are sorted,
// non-overlapping, and their total length equals Size().
func TestHindexedFlattenInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		lens := make([]int64, n)
		displs := make([]int64, n)
		pos := int64(0)
		for i := 0; i < n; i++ {
			pos += int64(rng.Intn(50))
			displs[i] = pos
			lens[i] = int64(rng.Intn(30))
			pos += lens[i]
		}
		ht, err := Hindexed(lens, displs)
		if err != nil {
			return false
		}
		var total int64
		prevEnd := int64(-1)
		for _, s := range ht.Segments() {
			if s.Off <= prevEnd {
				return false // overlap or not sorted-with-gap
			}
			prevEnd = s.Off + s.Len
			total += s.Len
		}
		return total == ht.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pack then Unpack restores exactly the bytes the layout touches.
func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := int(count%4) + 1
		blocks := rng.Intn(6) + 1
		lens := make([]int, blocks)
		displs := make([]int, blocks)
		pos := 0
		for i := 0; i < blocks; i++ {
			pos += rng.Intn(4)
			displs[i] = pos
			lens[i] = rng.Intn(5)
			pos += lens[i]
		}
		ty, err := Indexed(lens, displs, Int)
		if err != nil {
			return false
		}
		if ty.Extent() == 0 {
			return true
		}
		src := make([]byte, int64(c)*ty.Extent())
		rng.Read(src)
		packed, err := Pack(src, ty, c)
		if err != nil {
			return false
		}
		dst := make([]byte, len(src))
		if err := Unpack(packed, dst, ty, c); err != nil {
			return false
		}
		for _, s := range Flatten(ty, c, 0) {
			if !bytes.Equal(dst[s.Off:s.Off+s.Len], src[s.Off:s.Off+s.Len]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConstructorsSizeSegmentListOnce pins that a constructor allocates its
// segment list at its final size instead of doubling up to it: a type ten
// times larger costs no more allocations — give or take the one the race
// detector's runtime moves either way; doubling cost two to four more. (The
// fixed part is the name and the descriptor; counts stay above 255 so boxing
// them for the name allocates alike.) Fig. 5's file view is the first case.
func TestConstructorsSizeSegmentListOnce(t *testing.T) {
	etype, err := Contiguous(12, Byte)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := Struct([]int{1, 1}, []int64{0, 8}, []Type{Int, Double}) // two segments
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(n int) (Type, error){
		"Vector":     func(n int) (Type, error) { return Vector(n, 1, 512, etype) },
		"Contiguous": func(n int) (Type, error) { return Contiguous(n, pair) },
		"Struct": func(n int) (Type, error) {
			return Struct([]int{n, n}, []int64{0, int64(n) * 64}, []Type{pair, pair})
		},
		"Flatten": func(n int) (Type, error) { typeSink = Flatten(pair, n, 0); return nil, nil },
	} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := build(n); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(300), allocs(1024); large > small+1 {
			t.Errorf("%s: %v allocations for 1024 elements, %v for 300", name, large, small)
		}
	}
}

var typeSink []Segment
