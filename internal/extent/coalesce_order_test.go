package extent

import (
	"reflect"
	"testing"
)

// TestCoalesceAdjacentUnsorted feeds Coalesce runs that are adjacent but
// arrive out of offset order — the shape tcio's pending lists take when
// ranks ship their interleaved pieces in arbitrary order. The
// merge must not depend on arrival order.
func TestCoalesceAdjacentUnsorted(t *testing.T) {
	cases := []struct {
		name string
		in   []Extent
		want []Extent
	}{
		{
			name: "two adjacent reversed",
			in:   []Extent{{Off: 4, Len: 4}, {Off: 0, Len: 4}},
			want: []Extent{{Off: 0, Len: 8}},
		},
		{
			name: "interleaved ranks out of order",
			in:   []Extent{{Off: 24, Len: 8}, {Off: 0, Len: 8}, {Off: 16, Len: 8}, {Off: 8, Len: 8}},
			want: []Extent{{Off: 0, Len: 32}},
		},
		{
			name: "adjacent pair plus gap, shuffled",
			in:   []Extent{{Off: 40, Len: 8}, {Off: 8, Len: 8}, {Off: 0, Len: 8}},
			want: []Extent{{Off: 0, Len: 16}, {Off: 40, Len: 8}},
		},
		{
			name: "duplicate and contained runs reversed",
			in:   []Extent{{Off: 8, Len: 2}, {Off: 0, Len: 16}, {Off: 8, Len: 2}},
			want: []Extent{{Off: 0, Len: 16}},
		},
	}
	for _, tc := range cases {
		got := Coalesce(append([]Extent(nil), tc.in...))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Coalesce(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}
