package extent

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refCoalesce is Coalesce as it stood before the sorted-input check and
// slices.SortFunc: filter, reflection-based sort.Slice, merge. It is the
// oracle the current implementation is property-tested against.
func refCoalesce(list []Extent) []Extent {
	out := list[:0]
	for _, e := range list {
		if e.Len > 0 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].End() >= e.Off {
			if end := e.End(); end > merged[n-1].End() {
				merged[n-1].Len = end - merged[n-1].Off
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// TestCoalesceMatchesReference compares Coalesce with refCoalesce on seeded
// random lists in every arrival shape the callers produce: sorted,
// reversed, shuffled, with overlapping, duplicate, adjacent, zero-length
// and negative-length runs mixed in.
func TestCoalesceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(40)
		list := make([]Extent, n)
		off := int64(rng.Intn(8))
		for i := range list {
			off += int64(rng.Intn(12)) - 3 // mostly forward, sometimes back into the previous run
			if off < 0 {
				off = 0
			}
			list[i] = Extent{Off: off, Len: int64(rng.Intn(10)) - 1} // -1 and 0 are dropped
			if rng.Intn(4) > 0 {
				off += max(list[i].Len, 0) // adjacent to the next run
			}
		}
		switch iter % 4 {
		case 0: // leave sorted-ish, as built
		case 1:
			sort.Slice(list, func(i, j int) bool { return list[i].Off < list[j].Off })
		case 2:
			sort.Slice(list, func(i, j int) bool { return list[i].Off > list[j].Off })
		case 3:
			rng.Shuffle(n, func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
		want := refCoalesce(append([]Extent(nil), list...))
		got := Coalesce(append([]Extent(nil), list...))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Coalesce(%v) = %v, reference %v", iter, list, got, want)
		}
	}
}

// TestCoalesceDoesNotAllocate pins the hot-path cost: a sorted list takes
// one linear pass, an unsorted one an in-place sort — neither allocates.
func TestCoalesceDoesNotAllocate(t *testing.T) {
	sorted := make([]Extent, 256)
	for i := range sorted {
		sorted[i] = Extent{Off: int64(i) * 16, Len: 8 + int64(i%2)*8}
	}
	shuffled := append([]Extent(nil), sorted...)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	scratch := make([]Extent, len(sorted))
	for name, in := range map[string][]Extent{"sorted": sorted, "shuffled": shuffled} {
		if a := testing.AllocsPerRun(100, func() {
			copy(scratch, in)
			Coalesce(scratch)
		}); a != 0 {
			t.Errorf("%s input: %v allocs per Coalesce, want 0", name, a)
		}
	}
}
