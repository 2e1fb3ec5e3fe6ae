package mpi

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestDeadlockIsAnError runs five wrong programs, each of which leaves
// every running rank parked. Each must end within a second with a
// *DeadlockError naming every parked rank's wait — never ErrAborted, so a
// harness prints the waits — and each parked rank's own call must return
// ErrAborted.
func TestDeadlockIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		waits []string // the DeadlockError's, by rank
		prog  func(c *Comm) error
	}{
		{"each receives from the other", []string{"recv src=1 tag=7", "recv src=0 tag=7"}, func(c *Comm) error {
			_, err := c.Recv(1-c.Rank(), 7)
			return err
		}},
		{"receive from a returned rank", []string{"recv src=1 tag=3", ""}, func(c *Comm) error {
			if c.Rank() == 1 {
				return nil
			}
			_, err := c.Recv(1, 3)
			return err
		}},
		{"exclusive lock held across a barrier", []string{"collect", "lock target=1 excl"}, func(c *Comm) error {
			win, err := c.WinCreate(make([]byte, 8))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := win.Lock(1, true); err != nil {
					return err
				}
				if err := c.Send(1, 1, nil); err != nil {
					return err
				}
				return c.Barrier()
			}
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
			if err := win.Lock(1, true); err != nil {
				return err
			}
			return c.Barrier()
		}},
		{"receive inside a turn", []string{"recv src=1 tag=5", "turn"}, func(c *Comm) error {
			return c.InClockOrder(func() error {
				_, err := c.Recv(1-c.Rank(), 5)
				return err
			})
		}},
		{"barrier after a peer returned", []string{"collect", "collect", ""}, func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			return c.Barrier()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := make([]error, len(tc.waits))
			start := time.Now()
			_, err := runFor(t, time.Second, testCfg(len(tc.waits)), func(c *Comm) error {
				calls[c.Rank()] = tc.prog(c)
				return calls[c.Rank()]
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("Run returned %v, want a *DeadlockError", err)
			}
			if errors.Is(err, ErrAborted) {
				t.Errorf("Run's %v is ErrAborted", err)
			}
			if !slices.Equal(dl.Waits, tc.waits) {
				t.Errorf("waits %q, want %q (%v)", dl.Waits, tc.waits, err)
			}
			for r, wt := range tc.waits {
				if parked := wt != ""; parked && !errors.Is(calls[r], ErrAborted) || !parked && calls[r] != nil {
					t.Errorf("rank %d (parked on %q) returned %v", r, wt, calls[r])
				}
			}
			t.Logf("%v in %v", err, time.Since(start))
		})
	}
}

// TestParkVerdictReadsOneInstant: a rank parks in a receive, and its peer
// sends — unparking it — and returns, all between the parked rank's count and
// its deadlock verdict (countHook holds the verdict until the peer has
// retired). Read afresh, the live count then equals the stale parked count,
// and the world would stop with a DeadlockError that lists no wait. The
// verdict must come from the one value the rank's own count returned.
func TestParkVerdictReadsOneInstant(t *testing.T) {
	defer func() { countHook = nil }()
	for i := 0; i < 20; i++ {
		parked, retired := make(chan struct{}), make(chan struct{})
		var first [2]sync.Once
		countHook = func(rank int) {
			if rank == 0 { // its first count is the receive's park
				first[0].Do(func() { close(parked); <-retired })
			} else { // its first count is its retirement
				first[1].Do(func() { close(retired) })
			}
		}
		_, err := runFor(t, time.Second, testCfg(2), func(c *Comm) error {
			if c.Rank() == 1 {
				<-parked
				return c.Send(0, 9, []byte{1})
			}
			_, err := c.Recv(1, 9)
			return err
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
