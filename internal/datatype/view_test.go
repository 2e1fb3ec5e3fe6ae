package datatype

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// refViewRuns is mpiio's per-segment flatten as it stood before View: walk
// every segment of every filetype instance the request touches (linear skip
// to the start, one appended Segment per piece), then sort and merge. It is
// kept as the oracle View.Runs is property-tested against.
func refViewRuns(disp int64, filetype Type, pos, n int64) []Segment {
	if n <= 0 {
		return nil
	}
	ftSize := filetype.Size()
	ftExtent := filetype.Extent()
	segs := filetype.Segments()

	out := make([]Segment, 0, 16)
	inst := pos / ftSize
	skip := pos % ftSize
	remaining := n
	for remaining > 0 {
		base := disp + inst*ftExtent
		for _, s := range segs {
			if remaining <= 0 {
				break
			}
			runOff, runLen := s.Off, s.Len
			if skip > 0 {
				if skip >= runLen {
					skip -= runLen
					continue
				}
				runOff += skip
				runLen -= skip
				skip = 0
			}
			if runLen > remaining {
				runLen = remaining
			}
			out = append(out, Segment{Off: base + runOff, Len: runLen})
			remaining -= runLen
		}
		inst++
	}
	return Coalesce(out)
}

// randomType draws a datatype from every constructor, nesting derived
// types as bases up to depth levels deep.
func randomType(rng *rand.Rand, depth int) Type {
	base := []Type{Byte, Short, Int, Double}[rng.Intn(4)]
	if depth > 0 && rng.Intn(2) == 0 {
		base = randomType(rng, depth-1)
	}
	var t Type
	var err error
	switch rng.Intn(7) {
	case 0:
		t, err = Contiguous(1+rng.Intn(4), base)
	case 1:
		blocklen := 1 + rng.Intn(3)
		t, err = Vector(1+rng.Intn(4), blocklen, blocklen+rng.Intn(4), base)
	case 2:
		k := 1 + rng.Intn(5)
		lens, displs := make([]int, k), make([]int, k)
		at := 0
		for i := range lens {
			at += rng.Intn(4)
			displs[i] = at
			lens[i] = rng.Intn(4)
			at += lens[i]
		}
		t, err = Indexed(lens, displs, base)
	case 3:
		k := 1 + rng.Intn(6)
		lens, displs := make([]int64, k), make([]int64, k)
		for i := range lens {
			displs[i] = int64(rng.Intn(64)) // unsorted, may overlap
			lens[i] = int64(rng.Intn(12))
		}
		t, err = Hindexed(lens, displs)
	case 4:
		k := 1 + rng.Intn(3)
		lens, displs, types := make([]int, k), make([]int64, k), make([]Type, k)
		at := int64(0)
		for i := range lens {
			types[i] = []Type{Byte, Int, Double, base}[rng.Intn(4)]
			lens[i] = 1 + rng.Intn(3)
			at += int64(rng.Intn(9))
			displs[i] = at
			at += int64(lens[i]) * types[i].Extent()
		}
		t, err = Struct(lens, displs, types)
	case 5:
		dims := 1 + rng.Intn(3)
		sizes, subsizes, starts := make([]int, dims), make([]int, dims), make([]int, dims)
		for d := range sizes {
			sizes[d] = 1 + rng.Intn(5)
			subsizes[d] = 1 + rng.Intn(sizes[d])
			starts[d] = rng.Intn(sizes[d] - subsizes[d] + 1)
		}
		t, err = Subarray(sizes, subsizes, starts, []Type{Byte, Int, Double}[rng.Intn(3)])
	case 6:
		// Below, at and above the span: instances overlap, interleave,
		// abut, or leave a gap.
		inner := randomType(rng, depth-1)
		_, hi := spanOf(inner)
		t, err = Resized(inner, int64(rng.Intn(int(2*hi+2))))
	}
	if err != nil {
		panic(err) // the generator only draws legal arguments
	}
	return t
}

func spanOf(t Type) (lo, hi int64) {
	segs := t.Segments()
	if len(segs) == 0 {
		return 0, 0
	}
	return segs[0].Off, segs[len(segs)-1].End()
}

// TestViewRunsMatchesReference is the equivalence property: over seeded
// random views and requests — empty, mid-run, instance-spanning — the
// cursor returns exactly what the per-segment flatten returned.
func TestViewRunsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	views, interleaved, dense := 0, 0, 0
	for iter := 0; iter < 3000; iter++ {
		ft := randomType(rng, 2)
		disp := int64(rng.Intn(100))
		var segBytes int64
		for _, s := range ft.Segments() {
			segBytes += s.Len
		}
		v, err := NewView(disp, ft)
		if segBytes != ft.Size() || ft.Size() == 0 {
			// A type whose instances overlap inside a Contiguous/Vector
			// counts bytes its segments do not hold; no view tiles it.
			if err == nil {
				t.Fatalf("iter %d: NewView accepted %s with size %d and %d segment bytes", iter, ft, ft.Size(), segBytes)
			}
			continue
		}
		if err != nil {
			t.Fatalf("iter %d: NewView(%d, %s): %v", iter, disp, ft, err)
		}
		views++
		if !v.ordered {
			interleaved++
		}
		if v.dense {
			dense++
		}
		for req := 0; req < 12; req++ {
			pos := int64(rng.Intn(int(3*ft.Size()) + 1))
			n := int64(rng.Intn(int(4*ft.Size()) + 1))
			switch req {
			case 0:
				n = 0
			case 1:
				pos, n = 0, ft.Size() // exactly one instance
			case 2:
				n = 1
			}
			want := refViewRuns(disp, ft, pos, n)
			prefix := []Segment{{Off: -1, Len: 1}}
			got := v.Runs(prefix, pos, n)
			if !reflect.DeepEqual(got[:1], prefix) {
				t.Fatalf("iter %d: Runs overwrote dst's contents: %v", iter, got[:1])
			}
			got = got[1:]
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: view(disp=%d, %s extent=%d segs=%v).Runs(pos=%d, n=%d)\n got  %v\n want %v",
					iter, disp, ft, ft.Extent(), ft.Segments(), pos, n, got, want)
			}
		}
	}
	// The corpus must exercise all three paths, not just the common one.
	if views < 1000 || interleaved < 100 || dense < 50 || views-interleaved-dense < 500 {
		t.Fatalf("corpus too thin: %d views, %d interleaved, %d dense", views, interleaved, dense)
	}
}

// TestViewRunsFixedCases spells out the shapes the property test draws at
// random, so a failure names the case.
func TestViewRunsFixedCases(t *testing.T) {
	vec, _ := Vector(3, 1, 3, Int) // 4 bytes at 0, 12, 24
	padded, _ := Resized(vec, 36)
	abutting, _ := Resized(vec, 28) // instance i+1 starts where i ends
	folded, _ := Resized(vec, 4)    // instances interleave
	contig, _ := Contiguous(5, Int)
	for _, tc := range []struct {
		name   string
		disp   int64
		ft     Type
		pos, n int64
		want   []Segment
	}{
		{"byte view is the identity", 7, Byte, 1000, 65536, []Segment{{Off: 1007, Len: 65536}}},
		{"contiguous of elementary is dense", 0, contig, 3, 100, []Segment{{Off: 3, Len: 100}}},
		{"empty request", 0, padded, 5, 0, nil},
		{"mid-run start, instance-spanning", 100, padded, 2, 12, []Segment{{Off: 102, Len: 2}, {Off: 112, Len: 4}, {Off: 124, Len: 4}, {Off: 136, Len: 2}}},
		{"seek past whole instances", 0, padded, 12*1000 + 4, 4, []Segment{{Off: 36*1000 + 12, Len: 4}}},
		{"runs merge across abutting instances", 0, abutting, 8, 8, []Segment{{Off: 24, Len: 8}}},
		{"interleaved instances sort and merge", 0, folded, 0, 24, []Segment{{Off: 0, Len: 8}, {Off: 12, Len: 8}, {Off: 24, Len: 8}}},
	} {
		v, err := NewView(tc.disp, tc.ft)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := v.Runs(nil, tc.pos, tc.n)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Runs = %v, want %v", tc.name, got, tc.want)
		}
		if ref := refViewRuns(tc.disp, tc.ft, tc.pos, tc.n); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: Runs = %v, reference %v", tc.name, got, ref)
		}
	}
}

func TestNewViewValidation(t *testing.T) {
	if _, err := NewView(-1, Byte); err == nil {
		t.Error("negative displacement accepted")
	}
	empty, _ := Vector(0, 1, 1, Int)
	if _, err := NewView(0, empty); err == nil {
		t.Error("empty filetype accepted")
	}
}

// TestViewRunsDoesNotAllocate pins the steady state: with caller-owned
// scratch a request costs no allocation, on any of the three paths.
func TestViewRunsDoesNotAllocate(t *testing.T) {
	vec, _ := Vector(64, 1, 4, Int)
	folded, _ := Resized(vec, 8)
	for name, ft := range map[string]Type{"dense": Byte, "ordered": vec, "interleaved": folded} {
		v, err := NewView(0, ft)
		if err != nil {
			t.Fatal(err)
		}
		scratch := v.Runs(nil, 0, 4096) // grow once
		if a := testing.AllocsPerRun(100, func() {
			scratch = v.Runs(scratch[:0], 3, 4096)
		}); a != 0 {
			t.Errorf("%s view: %v allocs per Runs, want 0", name, a)
		}
		// A cold scratch is sized once to the request, not doubled up to it.
		if a := testing.AllocsPerRun(100, func() {
			runsSink = v.Runs(nil, 3, 4096)
		}); a != 1 {
			t.Errorf("%s view: %v allocs for a first request, want 1", name, a)
		}
	}
}

var runsSink []Segment

// randomUniformType draws a Contiguous, Vector or Subarray of a basic type:
// the filetypes whose segments usually share one length.
func randomUniformType(rng *rand.Rand) Type {
	base := []Type{Byte, Short, Int, Double}[rng.Intn(4)]
	var t Type
	var err error
	switch rng.Intn(3) {
	case 0:
		t, err = Contiguous(1+rng.Intn(8), base)
	case 1:
		blocklen := 1 + rng.Intn(4)
		t, err = Vector(1+rng.Intn(64), blocklen, blocklen+rng.Intn(5), base)
	default:
		dims := 2 + rng.Intn(2)
		sizes, sub, start := make([]int, dims), make([]int, dims), make([]int, dims)
		for d := range sizes {
			sizes[d] = 1 + rng.Intn(6)
			sub[d] = 1 + rng.Intn(sizes[d])
			start[d] = rng.Intn(sizes[d] - sub[d] + 1)
		}
		t, err = Subarray(sizes, sub, start, base)
	}
	if err != nil {
		panic(err)
	}
	return t
}

// TestUniformViewMatchesPrefixWalk: a view over a filetype whose segments
// share one length keeps no prefix table, and its division-based lookup
// returns exactly the runs the prefix-table walk returns, over random
// requests that start and end mid-segment and span instances.
func TestUniformViewMatchesPrefixWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	uniform := 0
	for iter := 0; iter < 2000; iter++ {
		ft := randomUniformType(rng)
		v, err := NewView(int64(rng.Intn(64)), ft)
		if err != nil {
			t.Fatalf("iter %d: NewView(%s): %v", iter, ft, err)
		}
		segs := ft.Segments()
		same := true
		for _, s := range segs {
			same = same && s.Len == segs[0].Len
		}
		if same != (v.prefix == nil) {
			t.Fatalf("iter %d: %s (segments %v) keeps a prefix table of %d entries", iter, ft, segs, len(v.prefix))
		}
		if !same {
			continue
		}
		uniform++
		walk := *v
		walk.seglen, walk.prefix = 0, make([]int64, len(segs))
		for i := 1; i < len(segs); i++ {
			walk.prefix[i] = walk.prefix[i-1] + segs[i-1].Len
		}
		for req := 0; req < 12; req++ {
			pos := int64(rng.Intn(int(3*ft.Size()) + 1))
			n := int64(rng.Intn(int(4*ft.Size())) + 1)
			if got, want := v.Runs(nil, pos, n), walk.Runs(nil, pos, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: %s Runs(%d, %d)\n got  %v\n want %v", iter, ft, pos, n, got, want)
			}
		}
	}
	if uniform < 1500 {
		t.Fatalf("corpus too thin: %d uniform filetypes of 2000", uniform)
	}
}

// TestNewViewBytesFlatOverUniformSegments: what NewView allocates does not
// grow with a uniform filetype's segment count; a ragged filetype's prefix
// table does, 8 B a segment.
func TestNewViewBytesFlatOverUniformSegments(t *testing.T) {
	perView := func(ft Type) int64 {
		const n = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			viewSink, _ = NewView(0, ft)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / n
	}
	ragged := func(count int) Type {
		lens, displs := make([]int, count), make([]int, count)
		for i := range lens {
			lens[i], displs[i] = 1+i%2, 3*i
		}
		t, err := Indexed(lens, displs, Int)
		if err != nil {
			panic(err)
		}
		return t
	}
	small, _ := Vector(16, 1, 2, Int)
	large, _ := Vector(4096, 1, 2, Int)
	if s, l := perView(small), perView(large); l > s+64 {
		t.Errorf("NewView allocates %d B over a 16-segment vector, %d B over a 4096-segment one", s, l)
	}
	if s, l := perView(ragged(16)), perView(ragged(4096)); l < s+8*(4096-16) {
		t.Errorf("NewView allocates %d B over 16 ragged segments, %d B over 4096: no prefix table measured", s, l)
	}
}

var viewSink *View
