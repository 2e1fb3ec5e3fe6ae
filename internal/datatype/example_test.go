package datatype_test

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
)

// Example builds the paper's Fig. 2 file view: an etype of one int plus one
// double, strided so that two processes interleave blocks round-robin.
func Example() {
	etype, _ := datatype.Struct([]int{1, 1}, []int64{0, 4},
		[]datatype.Type{datatype.Int, datatype.Double})
	filetype, _ := datatype.Vector(3, 1, 2, etype) // 3 blocks, stride = 2 procs
	fmt.Println("etype size:", etype.Size())
	fmt.Println("filetype runs:", datatype.Flatten(filetype, 1, 0))
	// Output:
	// etype size: 12
	// filetype runs: [{0 12} {24 12} {48 12}]
}

// ExampleSubarray selects one process's 2x2 sub-block out of a 4x4 array —
// the building block of the intro's 3D-volume decompositions.
func ExampleSubarray() {
	st, _ := datatype.Subarray([]int{4, 4}, []int{2, 2}, []int{1, 1}, datatype.Byte)
	fmt.Println("selected runs:", datatype.Flatten(st, 1, 0))
	fmt.Println("bytes selected:", st.Size(), "of", st.Extent())
	// Output:
	// selected runs: [{5 2} {9 2}]
	// bytes selected: 4 of 16
}

// ExamplePack gathers strided elements into a dense buffer and back.
func ExamplePack() {
	ty, _ := datatype.Vector(2, 1, 2, datatype.Byte) // bytes 0 and 2
	src := []byte{'a', 'x', 'b'}
	packed, _ := datatype.Pack(src, ty, 1)
	fmt.Printf("%s\n", packed)
	// Output: ab
}
