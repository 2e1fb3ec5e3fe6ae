package extent

// Edge-case pins for the interval algebra: zero-length runs, runs that
// touch exactly at a boundary, and empty inputs. The property tests in
// extent_test.go draw these shapes only occasionally; here each is a
// named, deterministic case.

import (
	"reflect"
	"testing"
)

func eq(t *testing.T, got, want []Extent, label string) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", label, got, want)
	}
}

func TestCoalesceEdges(t *testing.T) {
	// Zero-length and negative-length runs vanish, even between touching
	// neighbours they would otherwise appear to bridge.
	eq(t, Coalesce([]Extent{{0, 0}, {5, 0}, {9, -3}}), nil, "all-degenerate")
	eq(t, Coalesce(nil), nil, "nil")
	eq(t, Coalesce([]Extent{{0, 4}, {2, 0}, {4, 4}}),
		[]Extent{{0, 8}}, "zero-length between touching runs")
	// Adjacent-at-boundary runs merge; a one-byte gap does not.
	eq(t, Coalesce([]Extent{{8, 8}, {0, 8}}), []Extent{{0, 16}}, "touching")
	eq(t, Coalesce([]Extent{{0, 8}, {9, 8}}), []Extent{{0, 8}, {9, 8}}, "gap of one")
	// A run contained in its neighbour must not shrink the merged run.
	eq(t, Coalesce([]Extent{{0, 16}, {4, 4}}), []Extent{{0, 16}}, "contained")
}

func TestSplitAtEdges(t *testing.T) {
	eq(t, SplitAt(nil, 8), nil, "nil")
	eq(t, SplitAt([]Extent{{0, 0}, {5, 0}}, 8), nil, "zero-length only")
	// Runs already ending exactly on a boundary split into whole cells.
	eq(t, SplitAt([]Extent{{0, 16}}, 8), []Extent{{0, 8}, {8, 8}}, "aligned")
	// A run starting at a boundary and ending one byte past the next.
	eq(t, SplitAt([]Extent{{8, 9}}, 8), []Extent{{8, 8}, {16, 1}}, "one past")
	// A run strictly inside one cell is untouched.
	eq(t, SplitAt([]Extent{{9, 3}}, 8), []Extent{{9, 3}}, "interior")
	// A run crossing several cells, starting and ending inside one.
	eq(t, SplitAt([]Extent{{3, 10}}, 4), []Extent{{3, 1}, {4, 4}, {8, 4}, {12, 1}}, "straddling")
	// Non-positive granularity only filters degenerates.
	eq(t, SplitAt([]Extent{{3, 5}, {9, 0}}, 0), []Extent{{3, 5}}, "gran 0")
	eq(t, SplitAt([]Extent{{3, 5}}, -4), []Extent{{3, 5}}, "gran negative")
}

// TestSpanTotalEdges pins the degenerate-input behavior of Total.
func TestSpanTotalEdges(t *testing.T) {
	if n := Total([]Extent{{0, 4}, {9, -2}, {5, 0}}); n != 4 {
		t.Errorf("Total = %d, want 4", n)
	}
}
