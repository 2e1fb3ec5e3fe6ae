package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

// Tests of the optional ROMIO features: aggregator sub-selection
// (collective buffering) and data sieving.

func TestSetAggregatorsValidation(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "aggval")
		if err != nil {
			return err
		}
		if err := f.SetAggregators(-1); err == nil {
			return fmt.Errorf("negative aggregators accepted")
		}
		if err := f.SetAggregators(3); err == nil {
			return fmt.Errorf("more aggregators than ranks accepted")
		}
		if err := f.SetAggregators(1); err != nil {
			return err
		}
		return nil
	})
}

func TestCollectiveWriteWithFewerAggregators(t *testing.T) {
	// The same interleaved write with 2-of-8 aggregators must produce the
	// identical file, with fewer distinct FS clients issuing writes.
	const procs, pairs = 8, 16
	for _, aggs := range []int{0, 2} {
		var snapshot []byte
		var fsWrites int64
		run(t, procs, func(c *mpi.Comm) error {
			name := fmt.Sprintf("agg%d", aggs)
			f, err := Open(c, name)
			if err != nil {
				return err
			}
			if err := f.SetAggregators(aggs); err != nil {
				return err
			}
			if err := paperView(f, c.Rank(), procs, pairs); err != nil {
				return err
			}
			buf := make([]byte, pairs*12)
			for i := 0; i < pairs; i++ {
				buf[i*12] = byte(c.Rank() + 1)
			}
			if err := f.WriteAll(buf); err != nil {
				return err
			}
			if c.Rank() == 0 {
				snapshot = f.PFS().Snapshot()
				fsWrites = c.FS().Stats().Writes
			}
			return nil
		})
		if aggs == 0 {
			if fsWrites != procs {
				t.Fatalf("all-aggregator write used %d FS writes, want %d", fsWrites, procs)
			}
		} else if fsWrites != int64(aggs) {
			t.Fatalf("%d-aggregator write used %d FS writes", aggs, fsWrites)
		}
		want := make([]byte, procs*pairs*12)
		for p := 0; p < procs; p++ {
			for i := 0; i < pairs; i++ {
				want[(i*procs+p)*12] = byte(p + 1)
			}
		}
		if !bytes.Equal(snapshot, want) {
			t.Fatalf("aggs=%d: wrong file contents", aggs)
		}
	}
}

func TestCollectiveReadWithFewerAggregators(t *testing.T) {
	const procs, pairs = 8, 8
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "aggread")
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := f.WriteAt(0, paperReference(procs, pairs)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := f.SetAggregators(2); err != nil {
			return err
		}
		if err := paperView(f, c.Rank(), procs, pairs); err != nil {
			return err
		}
		got, err := f.ReadAll(int64(pairs * 12))
		if err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			iv := int(uint32le(got[i*12:]))
			if iv != c.Rank()*1000+i {
				return fmt.Errorf("rank %d pair %d = %d", c.Rank(), i, iv)
			}
		}
		return nil
	})
}

func uint32le(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func TestDataSievingSameBytesFewerRequests(t *testing.T) {
	const blocks = 32
	results := map[bool]struct {
		reads int64
		data  []byte
		clock simtime.Time
	}{}
	for _, sieve := range []bool{false, true} {
		var reads int64
		var data []byte
		var clock simtime.Time
		run(t, 1, func(c *mpi.Comm) error {
			name := fmt.Sprintf("sieve%v", sieve)
			f, err := Open(c, name)
			if err != nil {
				return err
			}
			// Lay down a strided pattern: 4 data bytes every 16.
			content := make([]byte, blocks*16)
			for i := range content {
				content[i] = byte(i)
			}
			if err := f.WriteAt(0, content); err != nil {
				return err
			}
			c.FS().Reset()
			// View selecting the 4-byte blocks.
			vt, err := datatype.Vector(blocks, 1, 4, datatype.Int)
			if err != nil {
				return err
			}
			if err := f.SetView(0, datatype.Int, vt); err != nil {
				return err
			}
			f.SetSieving(sieve)
			got, err := f.ReadAt(0, blocks*4)
			if err != nil {
				return err
			}
			reads = c.FS().Stats().Reads
			data = got
			clock = c.Now()
			return nil
		})
		results[sieve] = struct {
			reads int64
			data  []byte
			clock simtime.Time
		}{reads, data, clock}
	}
	if !bytes.Equal(results[true].data, results[false].data) {
		t.Fatal("sieving changed the data read")
	}
	if results[true].reads != 1 {
		t.Fatalf("sieving used %d reads, want 1", results[true].reads)
	}
	if results[false].reads != blocks {
		t.Fatalf("direct path used %d reads, want %d", results[false].reads, blocks)
	}
	// The sieved read is one storage.ReadExtentsSieved cover since PR 25,
	// the same request the hand-rolled span read issued: the clock it ends
	// at is the parent's, to the nanosecond.
	if got := results[true].clock; got != 1202685 {
		t.Fatalf("sieved read ends at %d, want 1202685", got)
	}
}

func TestSievingSingleRunUnchanged(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "sieve1")
		if err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte{1, 2, 3, 4}); err != nil {
			return err
		}
		f.SetSieving(true)
		got, err := f.ReadAt(0, 4)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}
