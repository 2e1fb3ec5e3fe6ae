package mpi

// Host hot-path micro-benchmarks (size-swept per SNIPPETS.md Snippet 2):
// the collective barrier under growing rank counts and mailbox matching
// under growing queue depths. These measure *host* wall-clock cost — the
// virtual-time results are pinned elsewhere and must not change.

import (
	"fmt"
	"testing"
)

// BenchmarkBarrier crosses one collective barrier per op at each rank
// count. Bytes are rank-arrivals, so MB/s reads as arrivals/µs across the
// sweep; allocs/op is the per-collective epoch overhead amortized over all
// ranks.
func BenchmarkBarrier(b *testing.B) {
	for _, procs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(procs))
			_, err := Run(Config{Procs: procs}, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce is the combining collective at each rank count: every
// rank contributes a value, one rank folds them.
func BenchmarkAllreduce(b *testing.B) {
	for _, procs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(procs) * 8)
			_, err := Run(Config{Procs: procs}, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := c.AllreduceInt64(OpMax, int64(c.Rank())); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchMailbox builds a mailbox preloaded with depth messages spread over
// distinct (src, tag) classes, with the probed class's message deposited
// last — the worst case for a linear scan, the common case for an index.
func benchMailbox(depth int) (*mailbox, int, int) {
	m := newMailbox()
	for i := 0; i < depth-1; i++ {
		m.deposit(envelope{src: i % 64, tag: i})
	}
	src, tag := 63, depth+1 // a class no filler message occupies
	m.deposit(envelope{src: src, tag: tag})
	return m, src, tag
}

// BenchmarkMailboxMatch measures one exact-match take+redeposit per op at
// each queue depth. The taken message is put back so the depth stays
// constant across iterations.
func BenchmarkMailboxMatch(b *testing.B) {
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m, src, tag := benchMailbox(depth)
			b.ReportAllocs()
			b.SetBytes(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := m.take(src, tag, neverPark)
				if err != nil {
					b.Fatal(err)
				}
				m.deposit(e)
			}
		})
	}
}

// BenchmarkMailboxMatchAnySource is the wildcard fallback: an AnySource
// take with an exact tag must still find the globally earliest deposit of
// that tag.
func BenchmarkMailboxMatchAnySource(b *testing.B) {
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m, _, tag := benchMailbox(depth)
			b.ReportAllocs()
			b.SetBytes(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := m.take(AnySource, tag, neverPark)
				if err != nil {
					b.Fatal(err)
				}
				m.deposit(e)
			}
		})
	}
}

// BenchmarkRPCEncode measures one request encode+send per op — the
// delegation tier's client hot path. The receiver drains and releases, so
// the steady state exercises the staging pool, not the heap.
func BenchmarkRPCEncode(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			payload := make([]byte, size)
			_, err := Run(Config{Procs: 2}, func(c *Comm) error {
				if c.Rank() == 0 {
					req := &RPCRequest{Op: OpWrite, Handle: 1, Off: 4096, Len: int64(size), Data: payload}
					for i := 0; i < b.N; i++ {
						req.Seq = int64(i)
						if err := c.SendRequest(1, 7, req); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					req, err := c.RecvRequest(AnySource, 7)
					if err != nil {
						return err
					}
					req.Release()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
