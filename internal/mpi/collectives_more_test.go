package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/simtime"
)

func TestSharedOnceSingleEvaluation(t *testing.T) {
	var created atomic.Int64
	_, err := Run(testCfg(6), func(c *Comm) error {
		v, err := c.SharedOnce(func() interface{} {
			created.Add(1)
			return map[string]int{"x": 1}
		})
		if err != nil {
			return err
		}
		m, ok := v.(map[string]int)
		if !ok || m["x"] != 1 {
			return fmt.Errorf("got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Load() != 1 {
		t.Fatalf("create ran %d times", created.Load())
	}
}

func TestSharedOnceIsSameObject(t *testing.T) {
	// Every rank must receive the SAME instance: mutations by one rank are
	// visible to all (that is the point — shared bookkeeping).
	type box struct{ ch chan int }
	_, err := Run(testCfg(4), func(c *Comm) error {
		v, err := c.SharedOnce(func() interface{} { return &box{ch: make(chan int, 4)} })
		if err != nil {
			return err
		}
		b := v.(*box)
		b.ch <- c.Rank()
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 && len(b.ch) != 4 {
			return fmt.Errorf("channel holds %d items, want 4", len(b.ch))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBilledBytes(t *testing.T) {
	// A plain send bills its payload at the machine's byte scale; an RPC
	// request bills its header at metadata scale plus the scaled payload.
	cfg := testCfg(2)
	cfg.Machine.ByteScale = 10
	run := func(send func(c *Comm) error) int64 {
		rep, err := Run(cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				return send(c)
			}
			_, err := c.Recv(0, 3)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Net.Bytes
	}
	if got := run(func(c *Comm) error { return c.Send(1, 3, make([]byte, 100)) }); got != 1000 {
		t.Fatalf("Send of 100 bytes at scale 10: network saw %d, want 1000", got)
	}
	req := &RPCRequest{Op: OpWrite, Data: make([]byte, 100)}
	if got := run(func(c *Comm) error { return c.SendRequest(1, 3, req) }); got != rpcReqHeaderWire+1000 {
		t.Fatalf("SendRequest of 100 bytes at scale 10: network saw %d, want %d", got, rpcReqHeaderWire+1000)
	}
}

func TestAlltoallvValidation(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if _, err := c.Alltoallv(make([][]byte, 5)); err == nil {
			return errors.New("wrong buffer count accepted")
		}
		// A well-formed call must still complete on both ranks.
		got, err := c.Alltoallv([][]byte{[]byte("a"), []byte("b")})
		if err != nil {
			return err
		}
		if len(got) != 2 {
			return fmt.Errorf("got %d buffers", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvLargePayloadsRoundTrip(t *testing.T) {
	const p = 4
	_, err := Run(testCfg(p), func(c *Comm) error {
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = make([]byte, 1000+dst)
			for i := range send[dst] {
				send[dst][i] = byte(c.Rank()*p + dst)
			}
		}
		recv, err := c.Alltoallv(send)
		if err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			if len(recv[src]) != 1000+c.Rank() {
				return fmt.Errorf("from %d got %d bytes", src, len(recv[src]))
			}
			for i, b := range recv[src] {
				if b != byte(src*p+c.Rank()) {
					return fmt.Errorf("from %d byte %d = %d", src, i, b)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveCollectivesKeepOrder(t *testing.T) {
	// A stress sequence of mixed collectives must stay matched across
	// epochs (the timeBarrier recycles correctly).
	_, err := Run(testCfg(5), func(c *Comm) error {
		for i := 0; i < 50; i++ {
			sum, err := c.AllreduceInt64(OpSum, int64(i))
			if err != nil {
				return err
			}
			if sum != int64(i*5) {
				return fmt.Errorf("round %d: sum %d", i, sum)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			all, err := c.AllgatherBytes([]byte{byte(c.Rank() * i)})
			if err != nil {
				return err
			}
			for r, v := range all {
				if len(v) != 1 || v[0] != byte(r*i) {
					return fmt.Errorf("round %d: all[%d] = %v", i, r, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCostGrowsWithScale(t *testing.T) {
	makespan := func(p int) int64 {
		rep, err := Run(testCfg(p), func(c *Comm) error { return c.Barrier() })
		if err != nil {
			t.Fatal(err)
		}
		return int64(rep.MaxTime)
	}
	if small, big := makespan(2), makespan(64); big <= small {
		t.Fatalf("barrier at 64 ranks (%d) not dearer than at 2 (%d)", big, small)
	}
}

func TestLocalRanksCommunicateThroughMemory(t *testing.T) {
	// Ranks 0 and 1 share node 0: their traffic must be local.
	rep, err := Run(Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 1000))
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.LocalMessages != 1 {
		t.Fatalf("LocalMessages = %d, want 1", rep.Net.LocalMessages)
	}
}

// inClockOrderClock is rank r's entry clock in the InClockOrder tests:
// pairs of ranks tie, and neither clocks nor ties follow rank order.
func inClockOrderClock(r int) simtime.Time {
	return simtime.Time((r*5%8)/2) * simtime.Time(simtime.Microsecond)
}

// TestInClockOrderRunsInClockOrder: every rank's turn runs alone, in (entry
// clock, rank) order, and no clock moves.
func TestInClockOrderRunsInClockOrder(t *testing.T) {
	const p = 8
	var ran []int // appended only inside a turn
	var running atomic.Int32
	runOK(t, p, func(c *Comm) error {
		c.AdvanceTo(inClockOrderClock(c.Rank()))
		entry := c.Now()
		if err := c.InClockOrder(func() error {
			if running.Add(1) != 1 {
				return errors.New("two turns ran at once")
			}
			defer running.Add(-1)
			ran = append(ran, c.Rank())
			if c.Now() != entry {
				return fmt.Errorf("clock %v at the turn, entered at %v", c.Now(), entry)
			}
			return nil
		}); err != nil {
			return err
		}
		if c.Now() != entry {
			return fmt.Errorf("clock %v after InClockOrder, entered at %v", c.Now(), entry)
		}
		return nil
	})
	want := make([]int, p)
	for r := range want {
		want[r] = r
	}
	slices.SortFunc(want, func(x, y int) int {
		return cmp.Or(cmp.Compare(inClockOrderClock(x), inClockOrderClock(y)), cmp.Compare(x, y))
	})
	if !slices.Equal(ran, want) {
		t.Fatalf("turns ran in order %v, want %v", ran, want)
	}
}

// TestInClockOrderFailureAbortsPeers: a rank that fails or panics in its
// turn keeps it, and every peer still waiting for its own fails with
// ErrAborted instead of blocking. A rank that fails right after the first
// turn blocks nobody either, though the abort may reach a later rank before
// its release token and the turn token do.
func TestInClockOrderFailureAbortsPeers(t *testing.T) {
	const p = 64
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		rank  int          // the failing rank; clocks ascend with the rank
		turn  func() error // its turn
		after error        // what it returns once its turn is done
	}{
		{"error", 2, func() error { return boom }, nil},
		{"panic", 2, func() error { panic("boom") }, nil},
		{"after the first turn", 0, func() error { return nil }, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, p)
			_, err := runWithin(t, testCfg(p), func(c *Comm) error {
				c.Compute(simtime.Duration(c.Rank()) * simtime.Microsecond)
				errs[c.Rank()] = c.InClockOrder(func() error {
					if c.Rank() == tc.rank {
						return tc.turn()
					}
					return nil
				})
				if c.Rank() == tc.rank && errs[c.Rank()] == nil {
					return tc.after
				}
				if errs[c.Rank()] == nil {
					return c.Barrier() // blocks until the abort
				}
				return errs[c.Rank()]
			})
			if err == nil || errors.Is(err, ErrAborted) {
				t.Fatalf("world error %v, want the failing rank's", err)
			}
			for r := tc.rank + 1; r < p && tc.after == nil; r++ {
				if !errors.Is(errs[r], ErrAborted) {
					t.Errorf("rank %d waiting for its turn: %v, want ErrAborted", r, errs[r])
				}
			}
		})
	}
}

// TestInClockOrderRejectsNestedCollectives: a turn's peers are waiting for
// their own turns, so a collective called inside one returns an error
// instead of waiting for them; the turn, and later collectives, complete.
func TestInClockOrderRejectsNestedCollectives(t *testing.T) {
	const p = 3
	runOK(t, p, func(c *Comm) error {
		if err := c.InClockOrder(func() error {
			for name, call := range map[string]func() error{
				"Barrier":      c.Barrier,
				"InClockOrder": func() error { return c.InClockOrder(func() error { return nil }) },
				"Alltoallv":    func() error { _, err := c.Alltoallv(make([][]byte, p)); return err },
			} {
				if call() == nil {
					return fmt.Errorf("%s inside a turn succeeded", name)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return c.Barrier()
	})
}
