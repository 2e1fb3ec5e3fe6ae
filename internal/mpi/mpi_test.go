package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/simtime"
)

// testCfg builds a small job configuration on the default machine.
func testCfg(procs int) Config {
	return Config{Procs: procs, Machine: cluster.Lonestar()}
}

func TestRunBasics(t *testing.T) {
	var count atomic.Int64
	rep, err := Run(testCfg(8), func(c *Comm) error {
		count.Add(1)
		if c.Size() != 8 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 8 {
			return fmt.Errorf("Rank = %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("ran %d ranks", count.Load())
	}
	if len(rep.RankTimes) != 8 {
		t.Fatalf("RankTimes len %d", len(rep.RankTimes))
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Procs: 0}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	m := cluster.Lonestar()
	m.Nodes = 1 // 12 cores only
	if _, err := Run(Config{Procs: 64, Machine: m}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("oversubscribed machine accepted")
	}
}

func TestSendRecv(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("ping"))
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "ping" {
			return fmt.Errorf("got %q", data)
		}
		if c.Now() == 0 {
			return errors.New("receive did not advance virtual time")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferIsCopied(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return nil
		}
		data, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("message mutated after send: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagAndSourceMatching(t *testing.T) {
	_, err := Run(testCfg(3), func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(2, 5, []byte("from0"))
		case 1:
			return c.Send(2, 6, []byte("from1"))
		default:
			// Receive tag 6 first even though tag 5 may already be queued.
			d6, err := c.Recv(AnySource, 6)
			if err != nil {
				return err
			}
			if string(d6) != "from1" {
				return fmt.Errorf("tag 6 got %q", d6)
			}
			d5, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if string(d5) != "from0" {
				return fmt.Errorf("tag 5 got %q", d5)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	const n = 20
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 0, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if d[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %d", i, d[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 0, nil); err == nil {
				return errors.New("send to rank 5 of 2 accepted")
			}
		}
		return nil
	})
	// Rank 0 reports no error itself; the invalid send must have errored
	// inside, not crashed.
	if err != nil && !strings.Contains(err.Error(), "accepted") {
		t.Fatal(err)
	}
}

func TestRankErrorPropagatesAndUnblocksPeers(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testCfg(4), func(c *Comm) error {
		if c.Rank() == 3 {
			return boom
		}
		// These ranks block forever unless the abort wakes them.
		_, err := c.Recv(3, 0)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPanicIsCaptured(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		_, err := c.Recv(1, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not reported: %v", err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	rep, err := Run(testCfg(5), func(c *Comm) error {
		// Rank 2 is the straggler.
		if c.Rank() == 2 {
			c.Compute(1_000_000)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rt := range rep.RankTimes {
		if rt < 1_000_000 {
			t.Fatalf("rank %d left barrier at %v, before the straggler", r, rt)
		}
	}
}

func TestAllreduce(t *testing.T) {
	_, err := Run(testCfg(7), func(c *Comm) error {
		v := int64(c.Rank() + 1)
		sum, err := c.AllreduceInt64(OpSum, v)
		if err != nil {
			return err
		}
		if sum != 28 {
			return fmt.Errorf("sum = %d", sum)
		}
		max, err := c.AllreduceInt64(OpMax, v)
		if err != nil {
			return err
		}
		if max != 7 {
			return fmt.Errorf("max = %d", max)
		}
		min, err := c.AllreduceInt64(OpMin, v)
		if err != nil {
			return err
		}
		if min != 1 {
			return fmt.Errorf("min = %d", min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherBytes(t *testing.T) {
	_, err := Run(testCfg(3), func(c *Comm) error {
		mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
		all, err := c.AllgatherBytes(mine)
		if err != nil {
			return err
		}
		for r, b := range all {
			want := bytes.Repeat([]byte{byte(r)}, r+1)
			if !bytes.Equal(b, want) {
				return fmt.Errorf("from %d got %v", r, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const p = 5
	_, err := Run(testCfg(p), func(c *Comm) error {
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		recv, err := c.Alltoallv(send)
		if err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			if recv[src][0] != byte(src) || recv[src][1] != byte(c.Rank()) {
				return fmt.Errorf("recv[%d] = %v", src, recv[src])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowPutGet(t *testing.T) {
	_, err := Run(testCfg(3), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 64))
		if err != nil {
			return err
		}
		// Everyone writes its rank into the next rank's window.
		target := (c.Rank() + 1) % 3
		if err := win.Lock(target, true); err != nil {
			return err
		}
		if err := win.Put(target, int64(c.Rank()), []byte{byte(c.Rank() + 1)}); err != nil {
			return err
		}
		if err := win.Unlock(target); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Read everyone's windows and verify.
		for t := 0; t < 3; t++ {
			writer := (t + 2) % 3
			if err := win.Lock(t, false); err != nil {
				return err
			}
			got, err := win.Get(t, int64(writer), 1)
			if err != nil {
				return err
			}
			if err := win.Unlock(t); err != nil {
				return err
			}
			if got[0] != byte(writer+1) {
				return fmt.Errorf("window %d byte %d = %d", t, writer, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowSegmentsRoundTrip(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 32))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			segs := []datatype.Segment{{Off: 0, Len: 2}, {Off: 10, Len: 3}}
			if err := win.Lock(1, true); err != nil {
				return err
			}
			if err := win.PutSegments(1, segs, []byte{1, 2, 3, 4, 5}); err != nil {
				return err
			}
			got, err := win.GetSegments(1, segs)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) {
				return fmt.Errorf("GetSegments = %v", got)
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			local := make([]byte, 13)
			win.SnapshotLocalInto(local, 0)
			want := []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 4, 5}
			if !bytes.Equal(local, want) {
				return fmt.Errorf("local window = %v", local)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowAccessWithoutLockFails(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Put(1, 0, []byte{1}); err == nil {
				return errors.New("Put without lock accepted")
			}
			if _, err := win.Get(1, 0, 1); err == nil {
				return errors.New("Get without lock accepted")
			}
			if err := win.Unlock(1); err == nil {
				return errors.New("Unlock without lock accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowBoundsChecked(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(1, true); err != nil {
				return err
			}
			if err := win.Put(1, 6, []byte{1, 2, 3}); err == nil {
				return errors.New("out-of-bounds put accepted")
			}
			if _, err := win.Get(1, -1, 2); err == nil {
				return errors.New("negative-offset get accepted")
			}
			return win.Unlock(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowExclusiveLockSerializesVirtualTime(t *testing.T) {
	rep, err := Run(testCfg(4), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 16))
		if err != nil {
			return err
		}
		// All ranks write to rank 0's window under exclusive locks.
		if err := win.Lock(0, true); err != nil {
			return err
		}
		c.Compute(1_000_000) // hold the lock for 1ms of virtual time
		if err := win.Put(0, int64(c.Rank()), []byte{1}); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Epochs serialize: the last holder cannot finish before 4 x 1ms.
	if rep.MaxTime < 4_000_000 {
		t.Fatalf("MaxTime = %v, want >= 4ms (serialized epochs)", rep.MaxTime)
	}
}

func TestDoubleLockSameTargetFails(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if err := win.Lock(1, false); err == nil {
				return errors.New("double lock accepted")
			}
			return win.Unlock(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMallocEnforcement(t *testing.T) {
	cfg := testCfg(12) // one full node: 2 GiB per rank
	cfg.EnforceMemory = true
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := c.Malloc(1 << 20); err != nil {
			return fmt.Errorf("small alloc: %w", err)
		}
		if err := c.Reserve(4 << 30); !errors.Is(err, cluster.ErrOutOfMemory) {
			return fmt.Errorf("4 GiB reserve on 2 GiB share: err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMallocScaledCharging(t *testing.T) {
	m := cluster.Lonestar()
	m.ByteScale = 1 << 20 // 1 MiB simulated per real byte
	cfg := Config{Procs: 12, Machine: m, EnforceMemory: true}
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		// 4 KiB real = 4 GiB simulated > 2 GiB share.
		if _, err := c.Malloc(4 << 10); !errors.Is(err, cluster.ErrOutOfMemory) {
			return fmt.Errorf("scaled alloc should OOM, err = %v", err)
		}
		// 1 KiB real = 1 GiB simulated: fits.
		buf, err := c.Malloc(1 << 10)
		if err != nil {
			return err
		}
		c.Free(buf)
		if got := c.MemUsed(); got != 0 {
			return fmt.Errorf("MemUsed = %d after free", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportTimes(t *testing.T) {
	rep, err := Run(testCfg(3), func(c *Comm) error {
		c.Compute(simtime.Duration(1000 * (c.Rank() + 1)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxTime != rep.RankTimes[2] {
		t.Fatalf("MaxTime %v != slowest rank %v", rep.MaxTime, rep.RankTimes[2])
	}
}

func TestFSSharedAcrossRanks(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		f := c.FS().Open("shared.dat")
		if c.Rank() == 0 {
			if _, err := f.WriteAt(c.Node(), 0, []byte("abc"), c.Now()); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got := make([]byte, 3)
		if _, err := f.ReadAt(c.Node(), 0, got, c.Now()); err != nil {
			return err
		}
		if string(got) != "abc" {
			return fmt.Errorf("rank %d read %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
