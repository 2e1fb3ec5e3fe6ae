package datatype

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSubarray2D(t *testing.T) {
	// 4x6 array of ints, 2x3 block at (1,2).
	st, err := Subarray([]int{4, 6}, []int{2, 3}, []int{1, 2}, Int)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 2*3*4 {
		t.Fatalf("size = %d", st.Size())
	}
	if st.Extent() != 4*6*4 {
		t.Fatalf("extent = %d", st.Extent())
	}
	// Rows 1 and 2, columns 2..4: element offsets 8..10 and 14..16.
	want := []Segment{{Off: 8 * 4, Len: 12}, {Off: 14 * 4, Len: 12}}
	if !reflect.DeepEqual(Flatten(st, 1, 0), want) {
		t.Fatalf("segments = %v, want %v", Flatten(st, 1, 0), want)
	}
}

func TestSubarray1D(t *testing.T) {
	st, err := Subarray([]int{10}, []int{4}, []int{3}, Double)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{Off: 24, Len: 32}}
	if !reflect.DeepEqual(Flatten(st, 1, 0), want) {
		t.Fatalf("segments = %v", Flatten(st, 1, 0))
	}
}

func TestSubarray3DRunCount(t *testing.T) {
	// A 3D cube-per-core decomposition: the innermost dimension stays
	// contiguous, so runs = product of the outer subsizes.
	st, err := Subarray([]int{8, 8, 8}, []int{2, 3, 4}, []int{4, 2, 0}, Byte)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Flatten(st, 1, 0)); got != 2*3 {
		t.Fatalf("runs = %d, want 6", got)
	}
	if st.Size() != 2*3*4 {
		t.Fatalf("size = %d", st.Size())
	}
}

func TestSubarrayWholeArrayCoalesces(t *testing.T) {
	st, err := Subarray([]int{3, 5}, []int{3, 5}, []int{0, 0}, Int)
	if err != nil {
		t.Fatal(err)
	}
	if got := Flatten(st, 1, 0); !reflect.DeepEqual(got, []Segment{{Off: 0, Len: 60}}) {
		t.Fatalf("whole-array subarray not one run: %v", got)
	}
}

func TestSubarrayErrors(t *testing.T) {
	cases := []struct {
		sizes, subsizes, starts []int
	}{
		{nil, nil, nil},
		{[]int{4}, []int{2, 2}, []int{0}},
		{[]int{0}, []int{1}, []int{0}},
		{[]int{4}, []int{0}, []int{0}},
		{[]int{4}, []int{5}, []int{0}},
		{[]int{4}, []int{2}, []int{-1}},
		{[]int{4}, []int{2}, []int{3}},
	}
	for i, c := range cases {
		if _, err := Subarray(c.sizes, c.subsizes, c.starts, Int); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Non-dense base types are rejected.
	rt, _ := Resized(Int, 16)
	if _, err := Subarray([]int{4}, []int{2}, []int{0}, rt); err == nil {
		t.Error("padded base accepted")
	}
}

// Property: packing a sub-block out of a filled array yields exactly the
// elements a straightforward triple loop would select.
func TestSubarrayPackMatchesLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(3) + 1
		sizes := make([]int, dims)
		subs := make([]int, dims)
		starts := make([]int, dims)
		total := 1
		for d := 0; d < dims; d++ {
			sizes[d] = rng.Intn(5) + 1
			subs[d] = rng.Intn(sizes[d]) + 1
			starts[d] = rng.Intn(sizes[d] - subs[d] + 1)
			total *= sizes[d]
		}
		st, err := Subarray(sizes, subs, starts, Byte)
		if err != nil {
			return false
		}
		src := make([]byte, total)
		for i := range src {
			src[i] = byte(i + 1)
		}
		packed, err := Pack(src, st, 1)
		if err != nil {
			return false
		}
		// Reference: iterate the sub-block in row-major order.
		var ref []byte
		var walk func(d, off int)
		walk = func(d, off int) {
			if d == dims {
				ref = append(ref, src[off])
				return
			}
			stride := 1
			for k := d + 1; k < dims; k++ {
				stride *= sizes[k]
			}
			for i := 0; i < subs[d]; i++ {
				walk(d+1, off+(starts[d]+i)*stride)
			}
		}
		walk(0, 0)
		return bytes.Equal(packed, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
