package storage

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/trace"
)

// sievedFile materializes a file of pseudorandom bytes and returns the
// file system plus a reference image.
func sievedFile(t *testing.T, inj *faults.Injector, size int64) (*pfs.FileSystem, []byte) {
	t.Helper()
	fs := multiOSTFS(inj)
	img := make([]byte, size)
	rng := rand.New(rand.NewSource(97))
	for i := range img {
		img[i] = byte(rng.Intn(256))
	}
	clock := &testClock{}
	c := NewClient(fs.Open("f"), 0, 0, clock)
	if _, err := c.WriteExtents("seed", trace.KindDrain, []Request{{Off: 0, Data: img}}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	return fs, img
}

// TestSievedReadMatchesPerRun: for random hole-y request lists and
// budgets, the sieved read delivers exactly the bytes a plain per-run
// ReadExtents would, and the waste accounting balances against the cover
// traffic.
func TestSievedReadMatchesPerRun(t *testing.T) {
	const size = 1 << 14
	fs, img := sievedFile(t, nil, size)
	rng := rand.New(rand.NewSource(98))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		reqs := make([]Request, n)
		var want int64
		for i := range reqs {
			off := rng.Int63n(size)
			l := rng.Int63n(256)
			if off+l > size {
				l = size - off
			}
			reqs[i] = Request{Off: off, Data: make([]byte, l)}
			want += l
		}
		budget := []int64{0, 1, 128, 1024, size}[rng.Intn(5)]
		clock := &testClock{}
		c := NewClient(fs.Open("f"), 0, 0, clock)
		res, err := c.ReadExtentsSieved("sieve", reqs, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, r := range reqs {
			if !bytes.Equal(r.Data, img[r.Off:r.Off+int64(len(r.Data))]) {
				t.Fatalf("trial %d budget %d: request %d bytes differ", trial, budget, i)
			}
		}
		if res.Waste < 0 || res.Bytes < res.Waste {
			t.Fatalf("trial %d: waste %d of %d cover bytes", trial, res.Waste, res.Bytes)
		}
		if res.Requests > int64(n) {
			t.Fatalf("trial %d: %d covers for %d runs", trial, res.Requests, n)
		}
	}
}

// TestSievedReadReducesRequests: runs separated by small holes collapse
// into one covering request under a budget spanning them, and degenerate
// to per-run list I/O (zero waste) under budget 0.
func TestSievedReadReducesRequests(t *testing.T) {
	fs, img := sievedFile(t, nil, 1<<12)
	mkReqs := func() []Request {
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = Request{Off: int64(i) * 64, Data: make([]byte, 32)} // 32B holes between runs
		}
		return reqs
	}
	clock := &testClock{}
	c := NewClient(fs.Open("f"), 0, 0, clock)

	reqs := mkReqs()
	res, err := c.ReadExtentsSieved("sieve", reqs, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Fatalf("spanning budget: %d covers, want 1", res.Requests)
	}
	// Cover [0, 7*64+32) = 480 bytes, delivering 8*32 = 256.
	if res.Waste != 480-256 {
		t.Fatalf("spanning budget: waste %d, want %d", res.Waste, 480-256)
	}
	for i, r := range reqs {
		if !bytes.Equal(r.Data, img[r.Off:r.Off+32]) {
			t.Fatalf("spanning budget: request %d bytes differ", i)
		}
	}

	reqs = mkReqs()
	res, err = c.ReadExtentsSieved("sieve", reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 8 || res.Waste != 0 {
		t.Fatalf("list I/O: %d covers waste %d, want 8 covers waste 0", res.Requests, res.Waste)
	}
}

// TestSievedStagingReused: a warm sieved batch allocates no staging. Its
// covers are carved from the client's arena, grown to the largest batch on
// the first call, so a batch staging a 448 KiB cover allocates only its
// plan and request lists — under a sixteenth of the cover — and the arena
// is never replaced.
func TestSievedStagingReused(t *testing.T) {
	fs, img := sievedFile(t, nil, 1<<19)
	c := NewClient(fs.Open("f"), 0, 0, &testClock{})
	reqs := make([]Request, 8) // 32 B runs 64 KiB apart: one 448 KiB cover
	for i := range reqs {
		reqs[i] = Request{Off: int64(i) << 16, Data: make([]byte, 32)}
	}
	batch := func() {
		if _, err := c.ReadExtentsSieved("sieve", reqs, 1<<19); err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if !bytes.Equal(r.Data, img[r.Off:r.Off+32]) {
				t.Fatalf("request %d bytes differ", i)
			}
		}
	}
	batch()
	arena := &c.stage[0]
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, batch) // runs+1 batches: one warm-up
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); per > 7<<16/16 {
		t.Fatalf("a warm 448 KiB sieved batch allocates %d bytes in %v allocations", per, allocs)
	}
	if &c.stage[0] != arena {
		t.Fatal("the staging arena was replaced by a batch no larger than the first")
	}
}

// TestSievedReadChaosDeterministic: under fault injection, two identical
// sieved batches see identical retry counts — the cover requests are the
// fault-roll identity and the plan is deterministic.
func TestSievedReadChaosDeterministic(t *testing.T) {
	run := func() (Result, int64) {
		inj := faults.New(11)
		inj.Set(faults.SiteOSTRead, faults.Rule{Prob: 0.2})
		fs, _ := sievedFile(t, inj, 1<<12)
		clock := &testClock{}
		c := NewClient(fs.Open("f"), 0, 3, clock)
		reqs := make([]Request, 6)
		for i := range reqs {
			reqs[i] = Request{Off: int64(i) * 300, Data: make([]byte, 100)}
		}
		res, err := c.ReadExtentsSieved("sieve", reqs, 512)
		if err != nil {
			t.Fatal(err)
		}
		return res.Result, res.Retries
	}
	r1, ret1 := run()
	r2, ret2 := run()
	if r1 != r2 || ret1 != ret2 {
		t.Fatalf("sieved chaos runs diverge: %+v/%d vs %+v/%d", r1, ret1, r2, ret2)
	}
}
