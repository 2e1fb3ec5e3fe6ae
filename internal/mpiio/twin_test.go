package mpiio

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

// The exchange's rebuilds (a flat plan, then a pack cut straight from the
// view) changed what the host allocates and nothing the model sees. These
// twins pin the model side to the numbers the per-aggregator implementation
// produced (commit fe9dee3): the same program run there reads the same
// values.

// blockRoundTrip writes blocks 12-byte blocks per rank through a strided
// view (one block every stride blocks, rank r displaced by r blocks), reads
// them back collectively, and checks the bytes.
func blockRoundTrip(c *mpi.Comm, name string, blocks, stride int) error {
	f, err := Open(c, name)
	if err != nil {
		return err
	}
	etype, err := datatype.Contiguous(12, datatype.Byte)
	if err != nil {
		return err
	}
	ft, err := datatype.Vector(blocks, 1, stride, etype)
	if err != nil {
		return err
	}
	if ft, err = datatype.Resized(ft, int64(blocks*stride)*12); err != nil {
		return err
	}
	if err := f.SetView(int64(c.Rank())*12, etype, ft); err != nil {
		return err
	}
	data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, blocks*12)
	if err := f.WriteAll(data); err != nil {
		return err
	}
	if err := f.SeekTo(0); err != nil {
		return err
	}
	got, err := f.ReadAll(int64(len(data)))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("rank %d: collective read-back mismatch", c.Rank())
	}
	return nil
}

// TestOneRankCollectiveMakespanTwin: a one-rank world is a totally ordered
// program, so its makespan is exact. The view leaves a hole after every
// block, so the write takes the read-modify-write preread.
func TestOneRankCollectiveMakespanTwin(t *testing.T) {
	rep := run(t, 1, func(c *mpi.Comm) error { return blockRoundTrip(c, "twin1", 64, 2) })
	if got, want := int64(rep.MaxTime), int64(twinOneRankNs); got != want {
		t.Errorf("one-rank WriteAll+ReadAll makespan = %d ns, want the parent's %d", got, want)
	}
}

// TestCollectiveWireTwin: multi-rank makespans depend on host arrival order
// (ROADMAP item 1), message and byte counts do not. Four ranks, every one
// an aggregator.
func TestCollectiveWireTwin(t *testing.T) {
	rep := run(t, 4, func(c *mpi.Comm) error { return blockRoundTrip(c, "twin4", 64, 4) })
	if rep.Net.Messages != twinWireMessages || rep.Net.Bytes != twinWireBytes {
		t.Errorf("%d messages / %d bytes on the wire, want the parent's %d / %d",
			rep.Net.Messages, rep.Net.Bytes, twinWireMessages, twinWireBytes)
	}
}

const (
	twinOneRankNs                   = 1260963
	twinWireMessages, twinWireBytes = 48, 14464
)

// TestTwoPhaseHostOrderFree: the exchange is resolved by its last arrival
// and the I/O phase runs in clock order, so no host schedule moves a clock,
// a network counter or a file system counter of a collective write and read.
// A seeded jitter at every touch of shared state perturbs the schedule.
func TestTwoPhaseHostOrderFree(t *testing.T) {
	m := cluster.Lonestar()
	m.CoresPerNode = 2 // 8 ranks on 4 nodes
	m.Net.IncastThreshold = 2
	m.Net.IncastScale = 1
	roundTrip := func(seed uint64) mpi.Report {
		mpi.SetTouchHook(func(rank int, site string, at simtime.Time) {
			if seed == 0 {
				return
			}
			h := fnv.New64a()
			fmt.Fprint(h, seed, rank, site, at)
			if v := h.Sum64(); v%2 == 0 {
				for n := v / 2 % 4; n > 0; n-- {
					runtime.Gosched()
				}
			} else if v%16 == 1 {
				time.Sleep(time.Duration(v/16%20) * time.Microsecond)
			}
		})
		defer mpi.SetTouchHook(nil)
		rep, err := mpi.Run(mpi.Config{Procs: 8, Machine: m}, func(c *mpi.Comm) error {
			c.Compute(simtime.Duration(c.Rank()*37%11) * simtime.Microsecond)
			return blockRoundTrip(c, "hostorder", 256, 9) // stride 9: holes, so a preread
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := roundTrip(0)
	for seed := uint64(1); seed <= 20; seed++ {
		got := roundTrip(seed)
		if !reflect.DeepEqual(got.RankTimes, want.RankTimes) || got.Net != want.Net || got.FS != want.FS {
			t.Fatalf("jitter seed %d moved the run:\n clocks %v\n want   %v\n net %+v\n want %+v\n fs %+v\n want %+v",
				seed, got.RankTimes, want.RankTimes, got.Net, want.Net, got.FS, want.FS)
		}
	}
}
