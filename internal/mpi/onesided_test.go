package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

func TestWinHeld(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if win.Held(1) {
			return errors.New("Held before Lock")
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		if !win.Held(1) {
			return errors.New("not Held after Lock")
		}
		if err := win.Unlock(1); err != nil {
			return err
		}
		if win.Held(1) {
			return errors.New("Held after Unlock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochTableOutOfOrder: epochs opened and closed in any target order
// keep each target's record — its lock mode and its latest put arrival —
// while the table shifts around it.
func TestEpochTableOutOfOrder(t *testing.T) {
	_, err := Run(testCfg(4), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 1<<12))
		if err != nil || c.Rank() != 0 {
			return err
		}
		arrival := map[int]simtime.Time{}
		for _, target := range []int{3, 1, 2} {
			if err := win.Lock(target, target == 2); err != nil {
				return err
			}
			n := int64(target) << 10
			h, err := win.PutSegmentsAsync(target, []datatype.Segment{{Off: 0, Len: n}}, make([]byte, n))
			if err != nil {
				return err
			}
			arrival[target] = h.Arrival()
		}
		for _, target := range []int{2, 3, 1} {
			h, err := win.epoch(target, "Put")
			if err != nil {
				return err
			}
			if h.target != target || h.exclusive != (target == 2) || h.maxArrival != arrival[target] {
				return fmt.Errorf("target %d: record %+v, want its own (arrival %v)", target, *h, arrival[target])
			}
			if err := win.Unlock(target); err != nil {
				return err
			}
			if win.Held(target) {
				return fmt.Errorf("target %d Held after Unlock", target)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinGetAsyncDataValidAfterComplete(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate([]byte{10, 20, 30, 40})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		h1, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 1, Len: 2}}, nil, 0)
		if err != nil {
			return err
		}
		h2, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 3, Len: 1}}, nil, 0)
		if err != nil {
			return err
		}
		if err := win.Unlock(1); err != nil {
			return err
		}
		if got := h1.Complete(); !bytes.Equal(got, []byte{20, 30}) {
			return fmt.Errorf("h1 = %v", got)
		}
		if got := h2.Complete(); !bytes.Equal(got, []byte{40}) {
			return fmt.Errorf("h2 = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinGetAsyncWithoutLockFails(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 0, Len: 1}}, nil, 0); err == nil {
				return errors.New("async get without lock accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetFloorDelaysTheTransferNotTheOrigin: a get issued before its floor
// completes floor − departure later than the same get of settled bytes, and
// its origin's clock pays only the issue cost. The ranks sit on two nodes and
// the get follows another one to the same target, so the transfer it keeps
// is the shared one of its issue instant, not a lone one at the floor.
func TestGetFloorDelaysTheTransferNotTheOrigin(t *testing.T) {
	const size = 1 << 20
	// run issues two gets back to back, the second with a floor floorAfter
	// past its issue start (none for 0), and reports the first get's
	// transfer, the second's departure and its arrival.
	run := func(floorAfter simtime.Duration) (first simtime.Duration, floor, depart, arrival simtime.Time) {
		cfg := testCfg(2)
		cfg.Machine.CoresPerNode = 1
		_, err := Run(cfg, func(c *Comm) error {
			win, err := c.WinCreate(make([]byte, size))
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				return nil
			}
			if err := win.Lock(1, false); err != nil {
				return err
			}
			segs := []datatype.Segment{{Off: 0, Len: size}}
			h, err := win.GetSegmentsAsync(1, segs, nil, 0)
			if err != nil {
				return err
			}
			first = h.arrival.Sub(c.Now())
			if floorAfter > 0 {
				floor = c.Now().Add(floorAfter)
			}
			if h, err = win.GetSegmentsAsync(1, segs, nil, floor); err != nil {
				return err
			}
			depart, arrival = c.Now(), h.arrival
			return win.Unlock(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return first, floor, depart, arrival
	}
	first, _, depart, settled := run(0)
	_, floor, floorDepart, floored := run(simtime.Second)
	if shared := settled.Sub(depart); shared <= first {
		t.Fatalf("the second settled get took %d, no more than the first's %d: the two did not share a port", shared, first)
	}
	if floorDepart != depart {
		t.Errorf("issuing the floored get moved the origin to %d, want %d as without a floor", floorDepart, depart)
	}
	if want := settled.Add(floor.Sub(depart)); floored != want {
		t.Errorf("the floored get arrives at %d, want the settled get's %d + (floor %d - departure %d)", floored, settled, floor, depart)
	}
}

func TestWinAsyncGetsOverlapInVirtualTime(t *testing.T) {
	// N async gets under one epoch must cost far less than N synchronous
	// gets: the epoch's Unlock waits once for the slowest transfer.
	const n = 64
	segs := make([]datatype.Segment, 1)

	syncTime := runOneSidedTimed(t, func(c *Comm, win *Win) error {
		for i := 0; i < n; i++ {
			segs[0] = datatype.Segment{Off: int64(i), Len: 1}
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if _, err := win.GetSegments(1, segs); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		return nil
	})
	asyncTime := runOneSidedTimed(t, func(c *Comm, win *Win) error {
		if err := win.Lock(1, false); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			segs[0] = datatype.Segment{Off: int64(i), Len: 1}
			if _, err := win.GetSegmentsAsync(1, segs, nil, 0); err != nil {
				return err
			}
		}
		return win.Unlock(1)
	})
	if asyncTime >= syncTime {
		t.Fatalf("async epoch (%v) not cheaper than %d sync epochs (%v)", asyncTime, n, syncTime)
	}
}

// runOneSidedTimed runs fn on rank 0 against rank 1's 128-byte window and
// returns the makespan.
func runOneSidedTimed(t *testing.T, fn func(*Comm, *Win) error) simtime.Time {
	t.Helper()
	rep, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 128))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := fn(c, win); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.MaxTime
}

// TestWinTransfersAreOneSided: a put and a get are each one one-sided
// message, never a two-sided one.
func TestWinTransfersAreOneSided(t *testing.T) {
	count := func(transfer bool) netsim.Stats {
		rep, err := Run(testCfg(2), func(c *Comm) error {
			win, err := c.WinCreate(make([]byte, 8))
			if err != nil {
				return err
			}
			if c.Rank() == 0 && transfer {
				if err := win.Lock(1, true); err != nil {
					return err
				}
				if err := win.Put(1, 0, []byte{1}); err != nil {
					return err
				}
				if _, err := win.Get(1, 0, 1); err != nil {
					return err
				}
				if err := win.Unlock(1); err != nil {
					return err
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Net
	}
	idle, busy := count(false), count(true)
	if got := busy.OneSidedMsgs - idle.OneSidedMsgs; got != 2 {
		t.Fatalf("a put and a get recorded %d one-sided messages, want 2", got)
	}
	if busy.TwoSidedMsgs != idle.TwoSidedMsgs {
		t.Fatalf("a put and a get recorded two-sided traffic: %+v vs %+v", busy, idle)
	}
}

func TestSharedLocksDoNotChainVirtualTime(t *testing.T) {
	// Many shared epochs, each holding for 1 ms of compute, must overlap:
	// the makespan stays near one epoch, not the sum.
	rep, err := Run(testCfg(8), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 64))
		if err != nil {
			return err
		}
		if err := win.Lock(7, false); err != nil {
			return err
		}
		c.Compute(simtime.Millisecond)
		if err := win.Put(7, int64(c.Rank()), []byte{1}); err != nil {
			return err
		}
		return win.Unlock(7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxTime > simtime.Time(4*simtime.Millisecond) {
		t.Fatalf("shared epochs serialized: makespan %v", rep.MaxTime)
	}
}

func TestExclusiveAfterSharedObservesHandoff(t *testing.T) {
	// An exclusive epoch must not begin (in virtual time) before earlier
	// shared epochs handed off.
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(0, false); err != nil {
				return err
			}
			c.Compute(10 * simtime.Millisecond)
			if err := win.Unlock(0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := win.Lock(0, true); err != nil {
				return err
			}
			if c.Now() < simtime.Time(10*simtime.Millisecond) {
				return fmt.Errorf("exclusive epoch began at %v, before shared handoff", c.Now())
			}
			return win.Unlock(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// secondEpoch runs two put epochs from rank 0 to rank 1 — a long transfer,
// then a short one — and reports what the second epoch observed. With
// reuse both run on one Win, so the second epoch gets the first one's
// recycled record; without, the second runs on a Win that never locked.
func secondEpoch(t *testing.T, reuse bool) (afterLock, afterPut, unlocked simtime.Time) {
	t.Helper()
	_, err := Run(testCfg(2), func(c *Comm) error {
		a, err := c.WinCreate(make([]byte, 1<<16))
		if err != nil {
			return err
		}
		b, err := c.WinCreate(make([]byte, 1<<16))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		epoch := func(w *Win, n int64) error {
			if err := w.Lock(1, false); err != nil {
				return err
			}
			h, err := w.epoch(1, "Put")
			if err != nil {
				return err
			}
			afterLock = h.maxArrival
			if _, err := w.PutSegmentsAsync(1, []datatype.Segment{{Off: 0, Len: n}}, make([]byte, n)); err != nil {
				return err
			}
			afterPut = h.maxArrival
			if err := w.Unlock(1); err != nil {
				return err
			}
			unlocked = c.Now()
			return nil
		}
		if err := epoch(a, 1<<16); err != nil {
			return err
		}
		if reuse {
			b = a
		}
		return epoch(b, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

// TestRecycledEpochStartsFresh: a re-opened epoch reuses the slot of the
// closed one in the Win's epoch table, and must start fresh — an epoch that
// inherited its predecessor's latest arrival would report transfers it never
// issued and make Unlock wait for them.
func TestRecycledEpochStartsFresh(t *testing.T) {
	lock, put, unlocked := secondEpoch(t, true)
	wantLock, wantPut, wantUnlocked := secondEpoch(t, false)
	if lock != 0 || lock != wantLock {
		t.Errorf("latest arrival after Lock on a recycled record = %v, want 0", lock)
	}
	if put != wantPut || unlocked != wantUnlocked {
		t.Errorf("recycled epoch: arrival %v, unlocked at %v; a fresh Win's: %v, %v",
			put, unlocked, wantPut, wantUnlocked)
	}
}

// TestGetSegmentsAsyncIntoCallerBuffer: the append-style destination lands
// the same bytes, at the same virtual time, as the allocating form — after
// whatever the buffer already holds, and in place when it has the room.
func TestGetSegmentsAsyncIntoCallerBuffer(t *testing.T) {
	segs := []datatype.Segment{{Off: 1, Len: 2}, {Off: 5, Len: 3}}
	get := func(dst []byte) (h GetHandle) {
		_, err := Run(testCfg(2), func(c *Comm) error {
			win, err := c.WinCreate([]byte{10, 11, 12, 13, 14, 15, 16, 17})
			if err != nil || c.Rank() != 0 {
				return err
			}
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if h, err = win.GetSegmentsAsync(1, segs, dst, 0); err != nil {
				return err
			}
			return win.Unlock(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want := get(nil)
	if !bytes.Equal(want.data, []byte{11, 12, 15, 16, 17}) {
		t.Fatalf("allocating get = %v", want.data)
	}
	buf := append(make([]byte, 0, 16), 1, 2, 3)
	got := get(buf)
	if !bytes.Equal(got.data, want.data) || got.arrival != want.arrival {
		t.Fatalf("get into a buffer = %v at %v, allocating form %v at %v",
			got.data, got.arrival, want.data, want.arrival)
	}
	if &got.data[0] != &buf[:4][3] || !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatal("get did not append in place after the buffer's contents")
	}
}

// TestGetSegmentsIntoAsyncMatchesAppendForm: a get whose origin side is
// one destination per segment lands each segment's bytes in its own
// destination — the later one winning where two overlap — and charges the
// origin exactly what the append form does: the same departure, arrival and
// unlock instant, floored or not. A destination of the wrong length is an
// error that moves no clock.
func TestGetSegmentsIntoAsyncMatchesAppendForm(t *testing.T) {
	segs := []datatype.Segment{{Off: 1, Len: 2}, {Off: 5, Len: 3}, {Off: 0, Len: 2}}
	type timing struct{ issued, unlocked simtime.Time }
	get := func(into bool, floor simtime.Time, dst [][]byte) (tm timing) {
		_, err := Run(testCfg(2), func(c *Comm) error {
			win, err := c.WinCreate([]byte{10, 11, 12, 13, 14, 15, 16, 17})
			if err != nil || c.Rank() != 0 {
				return err
			}
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if into {
				err = win.GetSegmentsIntoAsync(1, segs, dst, floor)
			} else {
				_, err = win.GetSegmentsAsync(1, segs, nil, floor)
			}
			if err != nil {
				return err
			}
			tm.issued = c.Now()
			if err := win.Unlock(1); err != nil {
				return err
			}
			tm.unlocked = c.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	buf := make([]byte, 6)
	dst := [][]byte{buf[0:2], buf[2:5], buf[1:3]} // the third overlaps both
	for _, floor := range []simtime.Time{0, simtime.Time(5 * simtime.Millisecond)} {
		clear(buf)
		if got, want := get(true, floor, dst), get(false, floor, nil); got != want {
			t.Fatalf("floor %v: into-destinations get issued/unlocked at %v, append form at %v", floor, got, want)
		}
		if want := []byte{11, 10, 11, 16, 17, 0}; !bytes.Equal(buf, want) {
			t.Fatalf("floor %v: destinations hold %v, want %v", floor, buf, want)
		}
	}
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil || c.Rank() != 0 {
			return err
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		before := c.Now()
		if err := win.GetSegmentsIntoAsync(1, segs, dst[:2], 0); err == nil {
			return fmt.Errorf("three segments into two destinations: no error")
		}
		if err := win.GetSegmentsIntoAsync(1, segs, [][]byte{buf[0:2], buf[2:4], buf[1:3]}, 0); err == nil {
			return fmt.Errorf("3-byte segment into a 2-byte destination: no error")
		}
		if c.Now() != before {
			return fmt.Errorf("rejected gets moved the clock %v -> %v", before, c.Now())
		}
		return win.Unlock(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmEpochDoesNotAllocate pins the host cost of a one-sided epoch: on
// a Win that has closed an epoch before, lock + indexed put + unlock and
// lock + indexed get into a caller buffer (appended, or one destination
// per segment) + unlock allocate nothing.
func TestWarmEpochDoesNotAllocate(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 64))
		if err != nil || c.Rank() != 0 {
			return err
		}
		segs := []datatype.Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}}
		data, dst := make([]byte, 16), make([]byte, 0, 16)
		epoch := func(op func() error) func() {
			return func() {
				if err := win.Lock(1, false); err != nil {
					panic(err)
				}
				if err := op(); err != nil {
					panic(err)
				}
				if err := win.Unlock(1); err != nil {
					panic(err)
				}
			}
		}
		put := epoch(func() error { _, err := win.PutSegmentsAsync(1, segs, data); return err })
		get := epoch(func() error { _, err := win.GetSegmentsAsync(1, segs, dst, 0); return err })
		into := [][]byte{data[:8], data[8:]}
		getInto := epoch(func() error { return win.GetSegmentsIntoAsync(1, segs, into, 0) })
		put() // warm: the first epoch grows the table every later one reuses
		if a := testing.AllocsPerRun(200, put); a != 0 {
			return fmt.Errorf("%v allocs per warm put epoch, want 0", a)
		}
		if a := testing.AllocsPerRun(200, get); a != 0 {
			return fmt.Errorf("%v allocs per warm get epoch, want 0", a)
		}
		if a := testing.AllocsPerRun(200, getInto); a != 0 {
			return fmt.Errorf("%v allocs per warm get epoch into per-segment destinations, want 0", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
