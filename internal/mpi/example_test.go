package mpi_test

import (
	"fmt"
	"log"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
)

// Example runs a tiny job: every rank contributes its id to an allreduce
// and rank 0 reports the sum and the job's simulated makespan.
func Example() {
	rep, err := mpi.Run(mpi.Config{Procs: 8, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		sum, err := c.AllreduceInt64(mpi.OpSum, int64(c.Rank()))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("sum of ranks 0..7 = %d\n", sum)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job finished in under a millisecond of virtual time: %v\n", rep.MaxTime < 1_000_000)
	// Output:
	// sum of ranks 0..7 = 28
	// job finished in under a millisecond of virtual time: true
}

// Example_onesided demonstrates passive-target one-sided communication:
// rank 0 deposits a value in rank 1's window without rank 1 participating.
func Example_onesided() {
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(1, true); err != nil {
				return err
			}
			if err := win.Put(1, 0, []byte{42}); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			b := make([]byte, 1)
			win.SnapshotLocalInto(b, 0)
			fmt.Printf("rank 1's window holds %d\n", b[0])
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: rank 1's window holds 42
}
