package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// A minimal protobuf writer, enough to build a synthetic Profile message.
type pbw struct{ bytes.Buffer }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func (w *pbw) uintField(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *pbw) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}

func packed(vals ...uint64) []byte {
	var w pbw
	for _, v := range vals {
		w.varint(v)
	}
	return w.Bytes()
}

// syntheticProfile builds a profile over two repo packages (tcio calling
// mpi), the benchmark and the runtime. Values are (count, nanoseconds).
func syntheticProfile() []byte {
	strs := []string{"",
		"runtime.mallocgc",                        // 1
		internalPrefix + "mpi.(*Win).Put",         // 2
		internalPrefix + "tcio.(*File).WriteAt",   // 3
		"main.(*synth).tcioWrite",                 // 4
		"runtime.gcBgMarkWorker",                  // 5
		internalPrefix + "tcio.(*File).addDirty",  // 6, inlined into WriteAt below
		internalPrefix + "mpi/sub.helper.func1.2", // 7, a nested package path
	}
	var prof pbw
	for _, s := range strs {
		prof.bytesField(profStringTable, []byte(s))
	}
	// Function i is named by string i; location i holds function i, except
	// location 6, which holds addDirty inlined into WriteAt.
	for id := uint64(1); id <= 7; id++ {
		var fn pbw
		fn.uintField(functionID, id)
		fn.uintField(functionName, id)
		prof.bytesField(profFunction, fn.Bytes())

		var loc pbw
		loc.uintField(locationID, id)
		funcs := []uint64{id}
		if id == 6 {
			funcs = []uint64{6, 3}
		}
		for _, f := range funcs {
			var line pbw
			line.uintField(lineFunctionID, f)
			line.uintField(2, 42) // line number, ignored
			loc.bytesField(locationLine, line.Bytes())
		}
		loc.uintField(3, 0xdeadbeef) // address, ignored
		prof.bytesField(profLocation, loc.Bytes())
	}
	sample := func(ns uint64, unpacked bool, locs ...uint64) {
		var s pbw
		if unpacked {
			for _, l := range locs {
				s.uintField(sampleLocationID, l)
			}
			s.uintField(sampleValue, 1)
			s.uintField(sampleValue, ns)
		} else {
			s.bytesField(sampleLocationID, packed(locs...))
			s.bytesField(sampleValue, packed(1, ns))
		}
		prof.bytesField(profSample, s.Bytes())
	}
	sample(10e6, false, 1, 2, 3, 4) // malloc under mpi.Put under tcio.WriteAt: mpi's
	sample(20e6, false, 3, 4)       // WriteAt itself: tcio's
	sample(7e6, true, 6, 4)         // addDirty inlined into WriteAt: tcio's, and under WriteAt
	sample(5e6, false, 5)           // background GC: the runtime's
	sample(3e6, false, 1, 4)        // the benchmark's own allocation
	sample(2e6, false, 7)           // a sub-package counts under its parent
	return prof.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	raw := syntheticProfile()
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(raw)
	zw.Close()

	want := map[string]int64{"mpi": 12e6, "tcio": 27e6, layerRuntime: 5e6, layerBenchmark: 3e6}
	for name, data := range map[string][]byte{"raw": raw, "gzip": zipped.Bytes()} {
		prof, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := prof.byLayer(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: byLayer = %v, want %v", name, got, want)
		}
		if got := prof.under(tcioWriteAt); got != 37e6 {
			t.Errorf("%s: under(WriteAt) = %d, want 37e6", name, got)
		}
	}
	if _, err := parseProfile(raw[:len(raw)-3]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", internalPrefix + "pfs.(*File).storeBytes", internalPrefix + "storage.(*Client).issue"}, "pfs"},
		{[]string{internalPrefix + "netsim.(*flowWindow).overlapAt"}, "netsim"},
		{[]string{"sync.(*Mutex).Lock", "github.com/tcio/tcio/benchmark.TestLayerOf"}, layerBenchmark},
		{[]string{"runtime.schedule", "runtime.mcall"}, layerRuntime},
		{nil, layerRuntime},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestMutexProfileAttribution runs the same rule over a mutex profile the
// runtime wrote: contention made here must be charged to the benchmark.
func TestMutexProfileAttribution(t *testing.T) {
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	// The profile is cumulative over the process: other tests' traced reps
	// are in it, so only what this test adds is looked at.
	before, err := lookupByLayer("mutex")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var n int
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				mu.Lock()
				n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after, err := lookupByLayer("mutex")
	if err != nil {
		t.Fatal(err)
	}
	by := subtract(after, before)
	for layer := range by {
		if layer != layerBenchmark && layer != layerRuntime {
			t.Errorf("contention charged to %q: %v", layer, by)
		}
	}
	if runtime.GOMAXPROCS(0) > 1 && by[layerBenchmark] == 0 {
		t.Logf("no contention sampled (n=%d): %v", n, by)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v)
	}
	// Log2 buckets: the median 500 lies in [256, 512), reported as its upper
	// edge; the maximum is exact.
	if got := h.quantile(0.5); got != 511 {
		t.Errorf("p50 = %d, want 511", got)
	}
	if got := h.quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000 (clamped to the maximum)", got)
	}
	if h.max != 1000 || h.n != 1000 {
		t.Errorf("max %d n %d", h.max, h.n)
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram has a non-zero quantile")
	}
}
