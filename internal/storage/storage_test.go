package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// testClock is a plain rank clock for driving a Client outside the MPI
// runtime.
type testClock struct{ now simtime.Time }

func (c *testClock) Now() simtime.Time { return c.now }
func (c *testClock) AdvanceTo(t simtime.Time) {
	if t > c.now {
		c.now = t
	}
}

// multiOSTFS builds a file system whose files stripe over several OSTs, so
// a batch's requests meet distinct targets.
func multiOSTFS(inj *faults.Injector) *pfs.FileSystem {
	cfg := pfs.DefaultConfig()
	cfg.OSTCount = 8
	cfg.StripeCount = 8
	cfg.Faults = inj
	return pfs.New(cfg)
}

// stripedRequests builds one request per stripe across nStripes stripes,
// each tagged and filled with a distinct pattern.
func stripedRequests(stripeSize int64, nStripes int) []Request {
	reqs := make([]Request, nStripes)
	for i := range reqs {
		data := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		reqs[i] = Request{Off: int64(i) * stripeSize, Data: data, Tag: fmt.Sprintf("stripe=%d", i)}
	}
	return reqs
}

// kbWriteCost is what one of stripedRequests' 1 KiB writes costs under cfg
// when no extent lock changes hands: its OST service time, and the
// acknowledgement that follows the batch's last completion.
func kbWriteCost(cfg pfs.Config) (service, ack simtime.Duration) {
	return simtime.BytesDuration(1024*cfg.ByteScale, cfg.WriteBandwidth) + cfg.ServerOverheadWrite, cfg.RequestOverhead / 4
}

// TestPostedBatchWritesEveryRequest: a posted batch stores every request's
// bytes and counts each once.
func TestPostedBatchWritesEveryRequest(t *testing.T) {
	fs := multiOSTFS(nil)
	c := NewClient(fs.Open("f"), 0, 0, &testClock{})
	reqs := stripedRequests(pfs.DefaultConfig().StripeSize, 8)
	res, err := c.WriteExtents("write", trace.KindDrain, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 8 || res.Bytes != 8*1024 {
		t.Fatalf("result %+v", res)
	}
	snap := fs.Open("f").Snapshot()
	for _, r := range reqs {
		if !bytes.Equal(snap[r.Off:r.Off+int64(len(r.Data))], r.Data) {
			t.Fatalf("%s not written", r.Tag)
		}
	}
}

// TestPostedBatchMakespan pins the charge a batch pays, to the nanosecond:
// every request departs at the batch's start, so requests on distinct OSTs
// finish together in one request's time, requests on one OST queue back to
// back with no completion-plus-acknowledgement wait between them, and the
// batch ends at the latest completion.
func TestPostedBatchMakespan(t *testing.T) {
	cfg := pfs.DefaultConfig()
	service, ack := kbWriteCost(cfg)
	const start = simtime.Time(7_000_000)
	for _, tc := range []struct {
		name    string
		stripes int // file's stripe count; 8 requests, one per stripe
		want    simtime.Time
	}{
		{"eight OSTs", 8, start.Add(service + ack)},
		{"one OST", 1, start.Add(8*service + ack)},
	} {
		cfg.OSTCount, cfg.StripeCount = 8, tc.stripes
		clock := &testClock{now: start}
		c := NewClient(pfs.New(cfg).Open("f"), 0, 0, clock)
		if _, err := c.WriteExtents("write", trace.KindDrain, stripedRequests(cfg.StripeSize, 8)); err != nil {
			t.Fatal(err)
		}
		if clock.now != tc.want {
			t.Errorf("%s: batch ends at %d, want %d", tc.name, clock.now, tc.want)
		}
	}
}

// TestPostedBatchReportsEachCompletion: a batch writes every request's own
// completion into the caller's slice, and it is the completion the same
// request has when the list is posted one request at a time at the same
// start on a twin file system — on one OST (the requests queue, every
// completion distinct) and on eight (they finish together).
func TestPostedBatchReportsEachCompletion(t *testing.T) {
	const start = simtime.Time(5_000_000)
	cfg := pfs.DefaultConfig()
	cfg.OSTCount, cfg.ReadAhead = 8, 0
	cfg.ByteScale = 1 << 10 // a 1 KiB read is a simulated MiB: service outlasts the request overhead
	for _, stripes := range []int{1, 8} {
		cfg.StripeCount = stripes
		batch := stripedRequests(cfg.StripeSize, 4)
		c := NewClient(pfs.New(cfg).Open("f"), 0, 0, &testClock{})
		done := make([]simtime.Time, len(batch))
		if _, err := c.ReadExtentsEach("read", trace.KindFetch, batch, start, done); err != nil {
			t.Fatal(err)
		}
		twin := NewClient(pfs.New(cfg).Open("f"), 0, 0, &testClock{})
		for i, r := range stripedRequests(cfg.StripeSize, 4) {
			_, want, err := twin.ReadExtentsFrom("read", trace.KindFetch, []Request{r}, start)
			if err != nil {
				t.Fatal(err)
			}
			if done[i] != want {
				t.Errorf("%d OSTs: request %d done at %d in the batch, %d posted alone", stripes, i, done[i], want)
			}
		}
		if distinct := done[0] != done[3]; distinct != (stripes == 1) {
			t.Errorf("%d OSTs: first and last completions %d, %d", stripes, done[0], done[3])
		}
	}
}

// TestPostedBatchesHostOrderIndependent: N clients each post a batch of k
// same-OST requests at a common start, from goroutines started in a seeded
// shuffle with seeded Gosched jitter. Whatever order the host runs them in,
// the OST is never idle: the latest completion is start + the summed service
// (+ one acknowledgement) exactly, and the multiset of completions is the
// same. A client that waits for request k before sending k+1 fails both.
func TestPostedBatchesHostOrderIndependent(t *testing.T) {
	const clients, perBatch, orders = 6, 8, 50
	const start = simtime.Time(3_000_000)
	cfg := pfs.DefaultConfig() // one OST per file
	service, ack := kbWriteCost(cfg)
	want := make([]simtime.Time, clients*perBatch)
	for i := range want {
		want[i] = start.Add(simtime.Duration(i+1)*service + ack)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(0); seed < orders; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pf := pfs.New(cfg).Open("f")
			rec := trace.New(0)
			order, jitter := rng.Perm(clients), make([]int, clients)
			for i := range jitter {
				jitter[i] = rng.Intn(8)
			}
			var wg sync.WaitGroup
			for _, cl := range order {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each client is its own node writing its own stripes:
					// no extent lock changes hands, every service is equal.
					c := NewClient(pf, cl, cl, &testClock{now: start})
					c.SetTrace(rec)
					reqs := stripedRequests(cfg.StripeSize, perBatch)
					for i := range reqs {
						reqs[i].Off += int64(cl*perBatch) * cfg.StripeSize
					}
					for range jitter[cl] {
						runtime.Gosched()
					}
					if _, err := c.WriteExtents("write", trace.KindDrain, reqs); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			var got []simtime.Time
			for _, ev := range rec.Events() {
				got = append(got, ev.Start.Add(ev.Dur))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d, order seed %d: completions\n got  %v\n want %v", procs, seed, got, want)
			}
		}
	}
}

// TestRetriesDeterministicAcrossListOrders checks that the absorbed fault
// count of a write batch and of a read batch depends only on the request
// identities, not on where in the batch a request sits.
func TestRetriesDeterministicAcrossListOrders(t *testing.T) {
	stripe := pfs.DefaultConfig().StripeSize
	for _, leg := range []struct {
		site faults.Site
		post func(c *Client, reqs []Request) (Result, error)
	}{
		{faults.SiteOSTWrite, func(c *Client, reqs []Request) (Result, error) {
			return c.WriteExtents("write", trace.KindDrain, reqs)
		}},
		{faults.SiteOSTRead, func(c *Client, reqs []Request) (Result, error) {
			return c.ReadExtents("read", trace.KindPopulate, reqs)
		}},
	} {
		run := func(perm []int) int64 {
			inj := faults.New(42).Set(leg.site, faults.Rule{Prob: 0.5})
			c := NewClient(multiOSTFS(inj).Open("f"), 0, 0, &testClock{})
			reqs := stripedRequests(stripe, 8)
			shuffled := make([]Request, len(reqs))
			for i, j := range perm {
				shuffled[i] = reqs[j]
			}
			if _, err := leg.post(c, shuffled); err != nil {
				t.Fatal(err)
			}
			return c.Retries()
		}
		base := run([]int{0, 1, 2, 3, 4, 5, 6, 7})
		rng := rand.New(rand.NewSource(1))
		for range 4 {
			perm := rng.Perm(8)
			if got := run(perm); got != base {
				t.Fatalf("%s: list order %v: %d retries, ascending order absorbed %d", leg.site, perm, got, base)
			}
		}
		if base == 0 {
			t.Fatalf("%s: fault rate 0.5 absorbed no faults; injection broken", leg.site)
		}
	}
}

// TestSievedReadChaosDeterministic: a read batch of scattered requests under
// injected read faults ends at the same result, with the same retries, every
// time it is run.
func TestSievedReadChaosDeterministic(t *testing.T) {
	run := func() (Result, int64) {
		inj := faults.New(11).Set(faults.SiteOSTRead, faults.Rule{Prob: 0.2})
		fs := multiOSTFS(inj)
		c := NewClient(fs.Open("f"), 0, 3, &testClock{})
		reqs := make([]Request, 6)
		for i := range reqs {
			reqs[i] = Request{Off: int64(i) * 300, Data: make([]byte, 100)}
		}
		res, err := c.ReadExtents("read", trace.KindPopulate, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Retries()
	}
	r1, ret1 := run()
	r2, ret2 := run()
	if r1 != r2 || ret1 != ret2 {
		t.Fatalf("chaos read runs diverge: %+v/%d vs %+v/%d", r1, ret1, r2, ret2)
	}
	if ret1 == 0 {
		t.Fatal("fault rate 0.2 absorbed no faults; injection broken")
	}
}

// TestIssueStopsAtFirstExhaustedRequest: requests after the one whose
// retries ran out are never issued. Which request that is comes from posting
// each alone under the same seed (fault rolls key on request identity).
func TestIssueStopsAtFirstExhaustedRequest(t *testing.T) {
	reqs := stripedRequests(pfs.DefaultConfig().StripeSize, 8)
	post := func(reqs []Request) (Result, *pfs.FileSystem, error) {
		fs := multiOSTFS(faults.New(1).Set(faults.SiteOSTWrite, faults.Rule{Prob: 0.3}))
		c := NewClient(fs.Open("f"), 0, 0, &testClock{})
		c.SetRetryPolicy(faults.NoRetry())
		res, err := c.WriteExtents("write", trace.KindDrain, reqs)
		return res, fs, err
	}
	first := slices.IndexFunc(reqs, func(r Request) bool {
		_, _, err := post([]Request{r})
		return err != nil
	})
	if first < 1 || first == len(reqs)-1 {
		t.Fatalf("seed fails request %d first; pick one that fails mid-list", first)
	}
	res, fs, err := post(reqs)
	if !errors.Is(err, faults.ErrExhaustedRetries) {
		t.Fatalf("error %v does not wrap ErrExhaustedRetries", err)
	}
	if res.Requests != int64(first) || fs.Stats().Writes != int64(first) {
		t.Fatalf("%d requests completed, %d reached the file system, want the %d before the failure",
			res.Requests, fs.Stats().Writes, first)
	}
}

// TestOverlappingWriteBatchRejected: a write batch with a shared byte is
// refused whole, typed, before any request reaches the file system; reads
// may overlap freely.
func TestOverlappingWriteBatchRejected(t *testing.T) {
	fs := multiOSTFS(nil)
	clock := &testClock{now: 5}
	c := NewClient(fs.Open("f"), 0, 0, clock)
	reqs := []Request{
		{Off: 4096, Data: make([]byte, 100)},
		{Off: 0, Data: make([]byte, 10)},
		{Off: 4195, Data: make([]byte, 1)}, // last byte of the first
	}
	res, err := c.WriteExtents("write", trace.KindDrain, reqs)
	if !errors.Is(err, ErrOverlappingBatch) {
		t.Fatalf("error %v is not ErrOverlappingBatch", err)
	}
	if res != (Result{}) || clock.now != 5 || fs.Stats().Writes != 0 {
		t.Fatalf("rejected batch still issued: result %+v, end %d, %d writes", res, clock.now, fs.Stats().Writes)
	}
	if _, err := c.ReadExtents("read", trace.KindFetch, reqs); err != nil {
		t.Fatalf("overlapping reads rejected: %v", err)
	}
}

// TestCheckDisjointMatchesBitmap holds checkDisjoint to a bitmap model on
// seeded request lists: sorted and shuffled, with empty requests, touching
// neighbours, duplicates and negative offsets.
func TestCheckDisjointMatchesBitmap(t *testing.T) {
	const span = 256
	rng := rand.New(rand.NewSource(22))
	overlapping := 0
	for trial := 0; trial < 4000; trial++ {
		reqs := make([]Request, rng.Intn(9))
		for i := range reqs {
			off := rng.Intn(span) // the model's bit; offsets straddle zero
			reqs[i] = Request{Off: int64(off - span/2), Data: make([]byte, rng.Intn(min(span-off, 24)+1))}
		}
		if rng.Intn(2) == 0 {
			slices.SortFunc(reqs, func(a, b Request) int { return int(a.Off - b.Off) })
		}
		var seen [span]bool
		model := false
		for _, r := range reqs {
			for b := r.Off + span/2; b < r.Off+span/2+int64(len(r.Data)); b++ {
				model = model || seen[b]
				seen[b] = true
			}
		}
		before := slices.Clone(reqs)
		err := checkDisjoint(reqs)
		if errors.Is(err, ErrOverlappingBatch) != model {
			t.Fatalf("trial %d: checkDisjoint = %v, bitmap says overlap = %v, requests %v", trial, err, model, before)
		}
		for i := range reqs {
			if reqs[i].Off != before[i].Off || len(reqs[i].Data) != len(before[i].Data) {
				t.Fatalf("trial %d: checkDisjoint reordered the caller's list", trial)
			}
		}
		if model {
			overlapping++
		}
	}
	if overlapping < 400 || overlapping > 3600 {
		t.Fatalf("%d of 4000 lists overlap: the generator no longer exercises both verdicts", overlapping)
	}
}

func TestExhaustionSurfacesWrappedError(t *testing.T) {
	inj := faults.New(7).Set(faults.SiteOSTWrite, faults.Rule{Prob: 1})
	fs := multiOSTFS(inj)
	clock := &testClock{}
	c := NewClient(fs.Open("f"), 0, 0, clock)
	c.SetRetryPolicy(faults.NoRetry())
	_, err := c.WriteExtents("write", trace.KindDrain,
		[]Request{{Off: 0, Data: []byte{1}, Tag: "doomed"}})
	if !errors.Is(err, faults.ErrExhaustedRetries) {
		t.Fatalf("error %v does not wrap ErrExhaustedRetries", err)
	}
}

func TestReadExtentsRoundTrip(t *testing.T) {
	stripe := pfs.DefaultConfig().StripeSize
	fs := multiOSTFS(nil)
	clock := &testClock{}
	c := NewClient(fs.Open("f"), 0, 0, clock)
	want := stripedRequests(stripe, 4)
	if _, err := c.WriteExtents("write", trace.KindDrain, want); err != nil {
		t.Fatal(err)
	}
	got := make([]Request, len(want))
	for i, r := range want {
		got[i] = Request{Off: r.Off, Data: make([]byte, len(r.Data)), Tag: r.Tag}
	}
	res, err := c.ReadExtents("read", trace.KindFetch, got)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(want)) {
		t.Fatalf("read result %+v", res)
	}
	for i := range want {
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("request %d read back wrong bytes", i)
		}
	}
}
