package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// fanOut is the per-OST goroutine fan-out runParallel used to be, kept as
// its oracle with the lane body verbatim: one goroutine per lane behind a
// WaitGroup, lane results folded in lane order afterwards. (The lane is a
// named closure only so that the package has no goroutine literal to grep.)
func (c *Client) fanOut(op string, kind trace.Kind, reqs []Request, write bool, start simtime.Time) (Result, simtime.Time, error) {
	groupOf := make(map[int]int)
	var groups [][]Request
	var osts []int
	for _, r := range reqs {
		ost := c.pf.OSTOf(r.Off)
		gi, ok := groupOf[ost]
		if !ok {
			gi = len(groups)
			groupOf[ost] = gi
			groups = append(groups, nil)
			osts = append(osts, ost)
		}
		groups[gi] = append(groups[gi], r)
	}
	order := make([]int, 0, len(groups))
	for gi := range groups {
		order = append(order, gi)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && osts[order[j-1]] > osts[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}

	workers := c.Workers()
	if workers > len(order) {
		workers = len(order)
	}
	type lane struct {
		res Result
		end simtime.Time
		err error
	}
	lanes := make([]lane, workers)
	var wg sync.WaitGroup
	walk := func(w int) {
		defer wg.Done()
		ln := &lanes[w]
		ln.end = start
		now := start
		for oi := w; oi < len(order); oi += workers {
			for _, r := range groups[order[oi]] {
				depart := now
				end, retries, err := c.issue(r, depart, write)
				if end > ln.end {
					ln.end = end
				}
				now = end
				if ferr := c.finish(op, kind, r, depart, end, retries, err, &ln.res); ferr != nil {
					ln.err = ferr
					return
				}
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go walk(w)
	}
	wg.Wait()

	var res Result
	var firstErr error
	maxEnd := start
	for _, ln := range lanes {
		res.Requests += ln.res.Requests
		res.Retries += ln.res.Retries
		res.Bytes += ln.res.Bytes
		if ln.end > maxEnd {
			maxEnd = ln.end
		}
		if ln.err != nil && firstErr == nil {
			firstErr = ln.err
		}
	}
	return res, maxEnd, firstErr
}

// laneWorld is one side of the comparison: its own file system, injector,
// recorder and client, so the two sides share nothing.
type laneWorld struct {
	fs  *pfs.FileSystem
	inj *faults.Injector
	rec *trace.Recorder
	c   *Client
}

func newLaneWorld(seed int64, armed bool, workers int) *laneWorld {
	w := &laneWorld{rec: trace.New(0)}
	if armed {
		w.inj = faults.New(seed).
			Set(faults.SiteOSTWrite, faults.Rule{Prob: 0.25}).
			Set(faults.SiteOSTRead, faults.Rule{Prob: 0.25}).
			Set(faults.SiteOSTSlow, faults.Rule{Prob: 0.2, Factor: 3})
	}
	cfg := pfs.DefaultConfig()
	cfg.OSTCount = 8
	cfg.StripeCount = 8
	cfg.StripeSize = 1 << 10
	// The readahead window is keyed by reader, so the fan-out's lanes share
	// it and its hits follow the host's schedule: off, so the oracle has one
	// answer to compare against.
	cfg.ReadAhead = 0
	cfg.Faults = w.inj
	w.fs = pfs.New(cfg)
	w.c = NewClient(w.fs.Open("f"), 3, 7, &testClock{})
	w.c.SetWorkers(workers)
	w.c.SetTrace(w.rec)
	// Two retries: some requests exhaust the budget, so failed lanes are
	// compared too.
	w.c.SetRetryPolicy(faults.RetryPolicy{MaxRetries: 2, BaseDelay: 200 * simtime.Microsecond, MaxDelay: simtime.Millisecond, Multiplier: 2})
	return w
}

// events returns the recorded events in an order that is a function of
// their contents, not of which goroutine recorded first.
func (w *laneWorld) events() []trace.Event {
	evs := w.rec.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	return evs
}

// TestSequentialLanesEqualFanOut: walking the lanes one after the other on
// the calling goroutine gives what the goroutine fan-out gave — the same
// Result, batch end and error, the same (depart, end) for every request, the
// same fault rolls — for any batch whose requests each stay inside one
// stripe (one that crosses into another lane's OST had no single answer
// under the fan-out).
func TestSequentialLanesEqualFanOut(t *testing.T) {
	const seeds, batchesPerSeed = 60, 3 // x 3 lane counts x armed/disarmed = 1080 batches
	for _, workers := range []int{2, 4, 8} {
		for _, armed := range []bool{false, true} {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				seq, fan := newLaneWorld(seed, armed, workers), newLaneWorld(seed, armed, workers)
				var start simtime.Time
				for b := 0; b < batchesPerSeed; b++ {
					name := fmt.Sprintf("workers=%d armed=%v seed=%d batch=%d", workers, armed, seed, b)
					write := b == 0 || rng.Intn(2) == 0
					reqs := make([]Request, 2+rng.Intn(30))
					for i := range reqs {
						stripe, in := int64(rng.Intn(40)), int64(rng.Intn(1<<10))
						data := make([]byte, 1+rng.Intn(int(1<<10-in)))
						rng.Read(data)
						reqs[i] = Request{Off: stripe<<10 + in, Data: data, Tag: fmt.Sprintf("r%d", i)}
					}
					// Reads fill Data, so each side gets its own copy.
					mine := func() []Request {
						out := make([]Request, len(reqs))
						for i, r := range reqs {
							out[i] = Request{Off: r.Off, Data: append([]byte(nil), r.Data...), Tag: r.Tag}
						}
						return out
					}
					sreqs, freqs := mine(), mine()
					sres, send, serr := seq.c.runParallel("op", trace.KindDrain, sreqs, write, start)
					fres, fend, ferr := fan.c.fanOut("op", trace.KindDrain, freqs, write, start)
					if sres != fres || send != fend || fmt.Sprint(serr) != fmt.Sprint(ferr) {
						t.Fatalf("%s: sequential (%+v, %v, %v), fan-out (%+v, %v, %v)", name, sres, send, serr, fres, fend, ferr)
					}
					if !reflect.DeepEqual(sreqs, freqs) {
						t.Fatalf("%s: bytes read differ", name)
					}
					// The next batch departs inside this one's tail, so it
					// finds the OST queues busy.
					start = start.Add(send.Sub(start) / 2)
				}
				if se, fe := seq.events(), fan.events(); !reflect.DeepEqual(se, fe) {
					t.Fatalf("workers=%d armed=%v seed=%d: trace events differ:\n sequential %v\n fan-out    %v", workers, armed, seed, se, fe)
				}
				if seq.fs.Stats() != fan.fs.Stats() || seq.c.Retries() != fan.c.Retries() ||
					seq.inj.CountsString() != fan.inj.CountsString() {
					t.Fatalf("workers=%d armed=%v seed=%d: counts differ: sequential %+v %q, fan-out %+v %q",
						workers, armed, seed, seq.fs.Stats(), seq.inj.CountsString(), fan.fs.Stats(), fan.inj.CountsString())
				}
				if armed && seed == 0 && seq.inj.TotalInjected() == 0 {
					t.Fatal("armed injector rolled no fault")
				}
			}
		}
	}
}
