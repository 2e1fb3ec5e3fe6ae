package datatype

import "fmt"

// Subarray builds MPI_Type_create_subarray: the type selecting an
// n-dimensional sub-block out of an n-dimensional array stored in row-major
// (C) order. This is the datatype behind the paper's motivating examples —
// SCEC's slice-per-core and S3D/Pixie3D's cube-per-core decompositions of a
// 3D computing volume mapped onto a 1D file (§I, Fig. 1).
//
// sizes are the full array's extents per dimension, subsizes the sub-block's
// extents, and starts the sub-block's origin, all in elements of base.
func Subarray(sizes, subsizes, starts []int, base Type) (Type, error) {
	n := len(sizes)
	if n == 0 {
		return nil, fmt.Errorf("datatype: Subarray with no dimensions")
	}
	if len(subsizes) != n || len(starts) != n {
		return nil, fmt.Errorf("datatype: Subarray arity mismatch %d/%d/%d",
			len(sizes), len(subsizes), len(starts))
	}
	total := int64(1)
	sub := int64(1)
	for d := 0; d < n; d++ {
		switch {
		case sizes[d] < 1:
			return nil, fmt.Errorf("datatype: Subarray sizes[%d] = %d", d, sizes[d])
		case subsizes[d] < 1 || subsizes[d] > sizes[d]:
			return nil, fmt.Errorf("datatype: Subarray subsizes[%d] = %d of %d", d, subsizes[d], sizes[d])
		case starts[d] < 0 || starts[d]+subsizes[d] > sizes[d]:
			return nil, fmt.Errorf("datatype: Subarray starts[%d] = %d with subsize %d of %d",
				d, starts[d], subsizes[d], sizes[d])
		}
		total *= int64(sizes[d])
		sub *= int64(subsizes[d])
	}

	esz := base.Size()
	if esz != base.Extent() {
		return nil, fmt.Errorf("datatype: Subarray requires a dense base type (size == extent)")
	}
	name := func() string { return fmt.Sprintf("subarray(%dd,%s)", n, base) }
	if n == 1 {
		return strided(name, []Segment{{Off: int64(starts[0]) * esz, Len: sub * esz}}, 1, 0, total*esz), nil
	}

	// Row-major strides in elements.
	stride := make([]int64, n)
	stride[n-1] = 1
	for d := n - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * int64(sizes[d+1])
	}

	// The block is the sub-block's first plane of the outermost dimension:
	// the innermost dimension is contiguous, and every combination of the
	// middle indices contributes one run. The planes repeat subsizes[0]
	// times, one outermost stride apart.
	runLen := int64(subsizes[n-1]) * esz
	idx := make([]int, n-1) // idx[0] stays 0: the first plane
	block := make([]Segment, 0, sub/int64(subsizes[0]*subsizes[n-1]))
	for {
		off := int64(starts[n-1])
		for d := 0; d < n-1; d++ {
			off += int64(starts[d]+idx[d]) * stride[d]
		}
		block = append(block, Segment{Off: off * esz, Len: runLen})
		// Odometer increment over the middle dimensions.
		d := n - 2
		for ; d > 0; d-- {
			idx[d]++
			if idx[d] < subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d <= 0 {
			break
		}
	}
	return strided(name, Coalesce(block), subsizes[0], stride[0]*esz, total*esz), nil
}
