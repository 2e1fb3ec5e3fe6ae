package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
)

// idle counts the buffers parked in the pool's free lists.
func (p *bufPool) idle() (n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.free {
		n += len(p.free[i])
	}
	return n
}

func TestGetBufSizeClasses(t *testing.T) {
	var p bufPool
	if got := p.get(0); got != nil {
		t.Fatalf("get(0) = %v, want nil", got)
	}
	// The four classes per doubling, at their edges: 2 KiB behind a 33-byte
	// RPC header costs 2560 B, not 4096.
	for _, tc := range []struct{ n, want int }{
		{1, 64}, {64, 64}, {65, 80}, {80, 80}, {81, 96}, {113, 128}, {129, 160},
		{2048, 2048}, {2048 + 33, 2560}, {2561, 3072}, {3073, 3584}, {3585, 4096},
		{1<<26 - 1, 1 << 26}, {1 << 26, 1 << 26},
	} {
		b := p.get(tc.n)
		if len(b) != tc.n || cap(b) != tc.want {
			t.Fatalf("get(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.want)
		}
	}
	// Above the largest class the heap serves directly; recycling such a
	// buffer, a sub-slice, or any odd-capacity caller slice is a silent
	// no-op.
	big := p.get(1<<26 + 1)
	if len(big) != 1<<26+1 {
		t.Fatalf("oversize len %d", len(big))
	}
	p.put(big)
	p.put(make([]byte, 100))
	p.put(p.get(2560)[33:])
	p.put(nil)
	if n := p.idle(); n != 0 {
		t.Fatalf("pool adopted %d foreign buffers", n)
	}

	// Seeded property: every size is covered with at most 25 % slack, and
	// every capacity handed out recycles into the class that serves it —
	// the next get of that size is the same backing array.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(1<<(1+rng.Intn(20)))
		b := p.get(n)
		c := cap(b)
		if len(b) != n || c < n || (n >= 256 && 4*c > 5*n) {
			t.Fatalf("get(%d): len %d cap %d", n, len(b), c)
		}
		if idx, size := poolClass(c); size != c || idx < 0 || idx >= poolClasses {
			t.Fatalf("get(%d): cap %d is not a class (class %d holds %d)", n, c, idx, size)
		}
		p.put(b)
		if again := p.get(n); &again[0] != &b[0] || p.idle() != 0 {
			t.Fatalf("get(%d) after put(cap %d) missed the pool", n, c)
		}
	}
}

func TestRecycleReturnsToPool(t *testing.T) {
	var p bufPool
	b := p.get(1000)
	for i := range b {
		b[i] = 0xAA
	}
	p.put(b)
	// The pool is a plain free list, so reuse is guaranteed: a smaller
	// request of the same class gets the same array, poisoned by put.
	c := p.get(900)
	if len(c) != 900 || cap(c) != 1024 || &c[0] != &b[0] {
		t.Fatalf("after recycle: len %d cap %d, same array %v", len(c), cap(c), &c[0] == &b[0])
	}
	for i, v := range c[:cap(c)] {
		if v != poolPoison {
			t.Fatalf("recycled byte %d = %#x, want poison %#x", i, v, poolPoison)
		}
	}
	// 700 bytes belong to the 768-byte class; the parked 1 KiB buffer
	// must not serve it.
	p.put(c)
	if d := p.get(700); cap(d) != 768 {
		t.Fatalf("get(700): cap %d, want 768", cap(d))
	}
}

// TestDoubleReleasePanics pins the test-binary check behind the by-value
// messages: Release is idempotent on one variable, but a copy made before it
// still holds the buffer, and releasing that too would park one array twice
// and later hand it to two messages. The pool must stay usable afterwards
// (a rank's panic is recovered by Run while its peers keep going).
func TestDoubleReleasePanics(t *testing.T) {
	var p bufPool
	req, err := decodeRequest(&p, encodeRequest(&p, &RPCRequest{Op: OpWrite, Data: make([]byte, 2048)}))
	if err != nil {
		t.Fatal(err)
	}
	held := req // what a queue or an epoch's staged list keeps
	req.Release()
	req.Release() // same variable: a no-op
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second copy's Release returned the buffer again without panicking")
			}
		}()
		held.Release()
	}()
	if n := p.idle(); n != 1 {
		t.Fatalf("%d buffers parked, want 1", n)
	}
	// Once the array is handed out again it is live, not parked: its next
	// put is an ordinary release.
	b := p.get(2048 + rpcReqHeaderWire)
	p.put(b)
	if n := p.idle(); n != 1 {
		t.Fatalf("%d buffers parked after reuse, want 1", n)
	}
}

// TestWorldsDoNotShareBuffers runs two worlds side by side, each cycling
// payloads through Send/Recv/Recycle, and checks that no staging array
// ever shows up in both: the pool is the world's, not the process's.
func TestWorldsDoNotShareBuffers(t *testing.T) {
	seen := make([]map[*byte]bool, 2)
	var wg sync.WaitGroup
	for w := range seen {
		seen[w] = make(map[*byte]bool)
		wg.Add(1)
		go func(mine map[*byte]bool) {
			defer wg.Done()
			_, err := Run(testCfg(2), func(c *Comm) error {
				peer := 1 - c.Rank()
				for i := 0; i < 200; i++ {
					if err := c.Send(peer, 3, make([]byte, 100+i)); err != nil {
						return err
					}
					got, err := c.Recv(peer, 3)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						mine[&got[0]] = true
					}
					c.Recycle(got)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(seen[w])
	}
	wg.Wait()
	if len(seen[0]) >= 200 || len(seen[1]) >= 200 {
		t.Fatalf("no reuse inside a world: %d and %d distinct arrays for 200 messages", len(seen[0]), len(seen[1]))
	}
	for b := range seen[0] {
		if seen[1][b] {
			t.Fatal("two worlds were handed the same staging array")
		}
	}
}

// TestRecycledPayloadsStayCorrect hammers send/recv with the receiver
// recycling every delivered payload: reused staging must never leak one
// message's bytes into another.
func TestRecycledPayloadsStayCorrect(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		const rounds = 200
		if c.Rank() == 0 {
			buf := make([]byte, 512)
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = byte(i + j)
				}
				if err := c.Send(1, 7, buf[:128+(i%3)*128]); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < rounds; i++ {
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if len(got) != 128+(i%3)*128 {
				return fmt.Errorf("round %d: len %d", i, len(got))
			}
			for j, v := range got {
				if v != byte(i+j) {
					return fmt.Errorf("round %d byte %d: got %#x want %#x", i, j, v, byte(i+j))
				}
			}
			c.Recycle(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolingKeepsFaultIdentity runs the same chaos-armed world twice —
// first with cold pools, then with the pools warmed by the first run — and
// checks that injection, retry, and message counts are identical. Staging
// buffers are real memory only: never charged to the simulated-memory
// accountant, never a fault site, so reuse must be invisible to the
// simulation.
func TestPoolingKeepsFaultIdentity(t *testing.T) {
	m := cluster.Lonestar()
	m.CoresPerNode = 1 // force every message across the interconnect
	world := func() (injected, setupRetries, messages int64) {
		inj := faults.New(42).Set(faults.SiteNetSetup, faults.Rule{Prob: 0.1})
		rep, err := Run(Config{Procs: 4, Machine: m, Faults: inj}, func(c *Comm) error {
			payload := bytes.Repeat([]byte{byte(c.Rank())}, 300)
			for i := 0; i < 20; i++ {
				got, err := c.AllgatherBytes(payload[:100+i])
				if err != nil {
					return err
				}
				_ = got
				dst := (c.Rank() + 1) % c.Size()
				src := (c.Rank() + c.Size() - 1) % c.Size()
				if err := c.Send(dst, i, payload); err != nil {
					return err
				}
				in, err := c.Recv(src, i)
				if err != nil {
					return err
				}
				c.Recycle(in)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj.TotalInjected(), rep.Net.SetupRetries, rep.Net.Messages
	}
	i1, r1, m1 := world()
	i2, r2, m2 := world()
	if i1 != i2 || r1 != r2 || m1 != m2 {
		t.Fatalf("cold pools: injected=%d retries=%d msgs=%d; warm pools: %d/%d/%d",
			i1, r1, m1, i2, r2, m2)
	}
	if i1 == 0 {
		t.Fatal("chaos run injected nothing; the identity check is vacuous")
	}
}

// benchPingPong measures allocations of the p2p staging path; recycle
// toggles whether the receiver returns payloads to the pool.
func benchPingPong(b *testing.B, recycle bool) {
	b.ReportAllocs()
	_, err := Run(testCfg(2), func(c *Comm) error {
		peer := 1 - c.Rank()
		payload := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, payload); err != nil {
					return err
				}
				got, err := c.Recv(peer, 1)
				if err != nil {
					return err
				}
				if recycle {
					c.Recycle(got)
				}
			} else {
				got, err := c.Recv(peer, 0)
				if err != nil {
					return err
				}
				if recycle {
					c.Recycle(got)
				}
				if err := c.Send(peer, 1, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPongRecycle(b *testing.B)   { benchPingPong(b, true) }
func BenchmarkPingPongNoRecycle(b *testing.B) { benchPingPong(b, false) }
