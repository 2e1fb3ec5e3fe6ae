package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/simtime"
)

// runWithin runs fn on a world of cfg under a deadline, so a regression
// that blocks a rank forever fails the test instead of hanging it.
func runWithin(t *testing.T, cfg Config, fn func(*Comm) error) (Report, error) {
	t.Helper()
	return runFor(t, time.Minute, cfg, fn)
}

// runFor is runWithin with the deadline limit.
func runFor(t *testing.T, limit time.Duration, cfg Config, fn func(*Comm) error) (Report, error) {
	t.Helper()
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(cfg, fn)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(limit):
		t.Fatalf("a rank was still blocked after %v", limit)
		return Report{}, nil
	}
}

// runOK runs fn on procs ranks and fails the test on any rank's error.
func runOK(t *testing.T, procs int, fn func(*Comm) error) {
	t.Helper()
	if _, err := runWithin(t, testCfg(procs), fn); err != nil {
		t.Fatal(err)
	}
}

// clockOrder lets ranks through one at a time in (entry clock, rank) order,
// round after round, so an exchange written out over Send and Recv hands
// its messages to the network in the order Alltoallv's combiner does.
type clockOrder struct {
	clocks  []simtime.Time // rank-owned: this round's entry clocks
	rounds  []int          // rank-owned: rounds entered
	arrived atomic.Int64   // clocks published, over all rounds
	passed  atomic.Int64   // turns taken, over all rounds
}

func newClockOrder(p int) *clockOrder {
	return &clockOrder{clocks: make([]simtime.Time, p), rounds: make([]int, p)}
}

// abortedErr reports ErrAborted once c's world has aborted.
func abortedErr(c *Comm) error {
	if c.w.aborted.Load() {
		return ErrAborted
	}
	return nil
}

// spin yields until cond holds or the world aborts.
func spin(c *Comm, cond func() bool) error {
	for !cond() {
		if err := abortedErr(c); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return nil
}

// wait publishes c's entry clock and returns once every rank has published
// its own and every rank ahead of c has called pass.
func (o *clockOrder) wait(c *Comm) error {
	p, round := int64(c.Size()), int64(o.rounds[c.Rank()])
	o.rounds[c.Rank()]++
	o.clocks[c.Rank()] = c.Now()
	o.arrived.Add(1)
	if err := spin(c, func() bool { return o.arrived.Load() >= p*(round+1) }); err != nil {
		return err
	}
	ahead := int64(0)
	for r, t := range o.clocks {
		if t < c.Now() || t == c.Now() && r < c.Rank() {
			ahead++
		}
	}
	return spin(c, func() bool { return o.passed.Load() == p*round+ahead })
}

func (o *clockOrder) pass() { o.passed.Add(1) }

// exchangeProcs ranks, two to a node, run exchangeRounds.
const exchangeProcs = 8

// exchangeRounds runs two rounds of an uneven all-to-all through exchange,
// the ranks arriving in host order and their entry clocks descending with
// the rank, checks the payloads, and returns the run's report: two exchanges that hand
// the network the same messages in the same order read the same clocks and
// netsim statistics.
func exchangeRounds(t *testing.T, exchange func(*Comm, [][]byte) ([][]byte, error)) Report {
	t.Helper()
	const p, rounds = exchangeProcs, 2
	cfg := testCfg(p)
	cfg.Machine.CoresPerNode = 2 // 4 nodes: both the NIC and the local-copy path
	cfg.Machine.Net.IncastThreshold = 2
	cfg.Machine.Net.IncastScale = 1

	// Uneven sizes, some empty (0 → 0 among them, an empty self-send).
	payload := func(round, src, dst int) []byte {
		n := (src*7 + dst*13 + round) % 5 * 3000
		return bytes.Repeat([]byte{byte(src<<4 | dst)}, n)
	}
	rep, err := runWithin(t, cfg, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			// Entry clocks descend with the rank.
			c.Compute(simtime.Duration((p-c.Rank())*(round+1)) * simtime.Microsecond)
			send := make([][]byte, p)
			for dst := range send {
				send[dst] = payload(round, c.Rank(), dst)
			}
			recv, err := exchange(c, send)
			if err != nil {
				return err
			}
			for src := range recv {
				if !bytes.Equal(recv[src], payload(round, src, c.Rank())) {
					return fmt.Errorf("round %d: payload from rank %d differs", round, src)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAlltoallvMatchesExplicitExchange checks that Alltoallv is, to the
// nanosecond and the counter, the post-receives → send×p → wait×p loop the
// paper describes, written out over Send and Recv (a posted receive matches
// when it is waited on, so posting is free) with the sources' sends taken in
// (entry clock, rank) order: same payloads, same final clock on every rank,
// same netsim statistics.
func TestAlltoallvMatchesExplicitExchange(t *testing.T) {
	order := newClockOrder(exchangeProcs)
	explicit := func(c *Comm, send [][]byte) ([][]byte, error) {
		const tag = 7
		if err := order.wait(c); err != nil {
			return nil, err
		}
		for dst := range send {
			if err := c.Send(dst, tag, send[dst]); err != nil {
				return nil, err
			}
		}
		order.pass()
		out := make([][]byte, len(send))
		for src := range out {
			data, err := c.Recv(src, tag)
			if err != nil {
				return nil, err
			}
			out[src] = data
		}
		return out, nil
	}

	want := exchangeRounds(t, explicit)
	got := exchangeRounds(t, (*Comm).Alltoallv)
	if !reflect.DeepEqual(got.RankTimes, want.RankTimes) {
		t.Errorf("final clocks differ:\n Alltoallv %v\n explicit  %v", got.RankTimes, want.RankTimes)
	}
	if got.Net != want.Net {
		t.Errorf("netsim stats differ:\n Alltoallv %+v\n explicit  %+v", got.Net, want.Net)
	}
	if want.Net.CongestedMsgs == 0 || want.Net.LocalMessages == 0 {
		t.Errorf("exchange exercised no incast or no local copy: %+v", want.Net)
	}
}

// flatExchange drives AlltoallvFlat from per-destination payloads: one send
// buffer, displacements, caller-owned receive slots.
func flatExchange(c *Comm, send [][]byte) ([][]byte, error) {
	displs := make([]int, len(send)+1)
	var buf []byte
	for dst, data := range send {
		buf = append(buf, data...)
		displs[dst+1] = len(buf)
	}
	recv := make([][]byte, len(send))
	if err := c.AlltoallvFlat(buf, displs, recv); err != nil {
		return nil, err
	}
	for src, data := range recv {
		if cap(data) != len(data) {
			return nil, fmt.Errorf("slice from rank %d has cap %d beyond len %d: an append would write into the sender's next message", src, cap(data), len(data))
		}
	}
	return recv, nil
}

// TestAlltoallvFlatMatchesAlltoallv: the two entry points are one exchange —
// same payloads, same final clocks, same netsim statistics.
func TestAlltoallvFlatMatchesAlltoallv(t *testing.T) {
	want := exchangeRounds(t, (*Comm).Alltoallv)
	got := exchangeRounds(t, flatExchange)
	if !reflect.DeepEqual(got.RankTimes, want.RankTimes) {
		t.Errorf("final clocks differ:\n flat      %v\n Alltoallv %v", got.RankTimes, want.RankTimes)
	}
	if got.Net != want.Net {
		t.Errorf("netsim stats differ:\n flat      %+v\n Alltoallv %+v", got.Net, want.Net)
	}
}

// TestAlltoallvDepositsNothing: the last arrival delivers every payload, so
// both entry points leave every mailbox as they found it.
func TestAlltoallvDepositsNothing(t *testing.T) {
	const p = 4
	runOK(t, p, func(c *Comm) error {
		if _, err := c.Alltoallv([][]byte{{1}, {2}, {3}, {4}}); err != nil {
			return err
		}
		if err := c.AlltoallvFlat([]byte{1, 2, 3, 4}, []int{0, 1, 2, 3, 4}, make([][]byte, p)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for r, rs := range c.w.ranks {
			rs.box.mu.Lock()
			seq := rs.box.seq
			rs.box.mu.Unlock()
			if seq != 0 {
				return fmt.Errorf("rank %d's mailbox took %d deposits", r, seq)
			}
		}
		return nil
	})
}

func TestAlltoallvFlatValidation(t *testing.T) {
	runOK(t, 2, func(c *Comm) error {
		buf := []byte("abcd")
		for name, call := range map[string]func() error{
			"short displacements": func() error { return c.AlltoallvFlat(buf, []int{0, 4}, make([][]byte, 2)) },
			"short receive array": func() error { return c.AlltoallvFlat(buf, []int{0, 2, 4}, make([][]byte, 1)) },
			"descending":          func() error { return c.AlltoallvFlat(buf, []int{2, 0, 4}, make([][]byte, 2)) },
			"past the buffer":     func() error { return c.AlltoallvFlat(buf, []int{0, 2, 5}, make([][]byte, 2)) },
		} {
			if call() == nil {
				return fmt.Errorf("%s accepted", name)
			}
		}
		return nil
	})
}

func TestAlltoallvReturnsErrAborted(t *testing.T) {
	const p = 4
	boom := errors.New("boom")
	errs := make([]error, p)
	_, _ = Run(testCfg(p), func(c *Comm) error { // the per-rank errors are checked below
		if c.Rank() == p-1 {
			return boom
		}
		// Blocks on the receive from the failed rank until the abort wakes it.
		_, errs[c.Rank()] = c.Alltoallv(make([][]byte, p))
		return errs[c.Rank()]
	})
	for r, err := range errs[:p-1] {
		if !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: Alltoallv returned %v, want ErrAborted", r, err)
		}
	}
	_, _ = Run(testCfg(p), func(c *Comm) error { // as above
		if c.Rank() == p-1 {
			return boom
		}
		errs[c.Rank()] = c.AlltoallvFlat(nil, make([]int, p+1), make([][]byte, p))
		return errs[c.Rank()]
	})
	for r, err := range errs[:p-1] {
		if !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: AlltoallvFlat returned %v, want ErrAborted", r, err)
		}
	}
}

// TestUserEntryPointsRejectRuntimeTags: negative tags are the runtime's, and
// -1 is no wildcard — a receive names its tag, from an exact source or from
// AnySource alike.
func TestUserEntryPointsRejectRuntimeTags(t *testing.T) {
	runOK(t, 1, func(c *Comm) error {
		for _, tag := range []int{-2, -100, -1} {
			for _, src := range []int{0, AnySource} {
				_, recvErr := c.Recv(src, tag)
				_, reqErr := c.RecvRequest(src, tag)
				for name, err := range map[string]error{"Recv": recvErr, "RecvRequest": reqErr} {
					if err == nil {
						return fmt.Errorf("%s(%d, %d) accepted the tag", name, src, tag)
					}
				}
			}
			_, repErr := c.RecvReply(0, tag)
			for name, err := range map[string]error{
				"Send":        c.Send(0, tag, nil),
				"SendRequest": c.SendRequest(0, tag, &RPCRequest{Op: OpFlush}),
				"SendReply":   c.SendReply(0, tag, &RPCReply{OK: true}),
				"RecvReply":   repErr,
			} {
				if err == nil {
					return fmt.Errorf("%s accepted tag %d", name, tag)
				}
			}
		}
		return nil
	})
}

// TestUserEntryPointsRejectBadSources: a receive from a rank outside the
// world can never match, so every receive entry point rejects it instead of
// blocking. The world runs under a deadline so a regression fails rather
// than hangs.
func TestUserEntryPointsRejectBadSources(t *testing.T) {
	const procs = 2
	runOK(t, procs, func(c *Comm) error {
		for _, src := range []int{procs, -2} {
			_, recvErr := c.Recv(src, 3)
			_, reqErr := c.RecvRequest(src, 3)
			for name, err := range map[string]error{"Recv": recvErr, "RecvRequest": reqErr} {
				if err == nil {
					return fmt.Errorf("%s(%d, 3) accepted the source", name, src)
				}
			}
		}
		return nil
	})
}

// parkedOn reports what rank r of c's world is parked on ("" when it is not).
func parkedOn(c *Comm, r int) string {
	rs := c.w.ranks[r]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.wait.String()
}

// TestAbortSeenOnlyWhereARankWouldBlock pins the stop-point rule behind
// seed-pinned chaos runs: a rank parked when a peer fails — on a window lock
// the failed rank holds, on a reply it will never send — is released with
// ErrAborted; after the failure, everything a rank can finish on its own
// still succeeds — so how far it gets is a function of its own operations —
// and the first operation that has to wait returns ErrAborted.
func TestAbortSeenOnlyWhereARankWouldBlock(t *testing.T) {
	boom := errors.New("boom")
	var survivor, replyWaiter error
	_, err := runWithin(t, testCfg(3), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		switch c.Rank() {
		case 1:
			if err := c.Send(0, 1, []byte("sent before failing")); err != nil {
				return err
			}
			if err := win.Lock(0, true); err != nil {
				return err
			}
			if err := c.Send(0, 3, []byte("locked")); err != nil {
				return err
			}
			for parkedOn(c, 0) != "lock target=0 shared" || parkedOn(c, 2) != "recv src=1 tag=4" {
				runtime.Gosched()
			}
			return boom
		case 2:
			if _, err := c.RecvReply(1, 4); !errors.Is(err, ErrAborted) {
				replyWaiter = fmt.Errorf("blocked RecvReply returned %v, want ErrAborted", err)
			}
			return nil
		}
		if _, err := c.Recv(1, 3); err != nil {
			return err
		}
		if err := win.Lock(0, false); !errors.Is(err, ErrAborted) {
			survivor = fmt.Errorf("lock held by the failed rank returned %v, want ErrAborted", err)
			return nil
		}
		for abortedErr(c) == nil {
			runtime.Gosched()
		}
		survivor = func() error {
			if err := c.Send(1, 2, []byte("eager")); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			if err := win.Lock(1, true); err != nil {
				return fmt.Errorf("free lock: %w", err)
			}
			if err := win.Put(1, 0, []byte{1}); err != nil {
				return fmt.Errorf("put: %w", err)
			}
			if err := win.Unlock(1); err != nil {
				return fmt.Errorf("unlock: %w", err)
			}
			if got, err := c.Recv(1, 1); err != nil || string(got) != "sent before failing" {
				return fmt.Errorf("buffered receive: %q, %v", got, err)
			}
			if _, err := c.Recv(1, 1); !errors.Is(err, ErrAborted) {
				return fmt.Errorf("blocking receive returned %v, want ErrAborted", err)
			}
			if err := c.Barrier(); !errors.Is(err, ErrAborted) {
				return fmt.Errorf("barrier returned %v, want ErrAborted", err)
			}
			return nil
		}()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("world error %v, want the failing rank's", err)
	}
	if survivor != nil {
		t.Fatal(survivor)
	}
	if replyWaiter != nil {
		t.Fatal(replyWaiter)
	}
}
