package mpi

import (
	"math/bits"
	"sync"
	"testing"
)

// The runtime stages a private copy of every message payload (eager
// buffering: the sender may reuse its buffer the instant Send returns).
// Those copies are the hottest real-memory allocation in the simulator, so
// they are drawn from per-size free lists instead of the heap. Pooling is
// purely a real-memory optimization: staging copies were never charged to
// the simulated-memory accountant and plain allocation is not a fault
// site, so request and fault identity are unchanged (BenchmarkPingPong*).
//
// The pool belongs to the World: born empty with the job, gone with it, so
// what a run allocates depends neither on what ran before it nor on GC
// timing (the collector empties a sync.Pool). One plain mutex guards it.
// Size classes are 2^k x {1, 1.25, 1.5, 1.75}: at most 25 % slack, so 2 KiB
// behind a 33-byte RPC header costs 2 560 B, not the next power of two.
//
// A buffer re-enters the pool when its last owner says so: an RPC message
// through its Release; a Recv payload, or an Alltoallv one (staged per
// destination, handed to its one receiver by the exchange's last arrival),
// through Comm.Recycle, the application's opt-in. One nobody returns is
// collected like any slice. AlltoallvFlat bypasses the pool: it delivers
// slices of its caller's one send buffer.

const (
	// minPoolShift is the smallest pooled size class (64 B); tinier
	// payloads round up to it.
	minPoolShift = 6
	// maxPoolShift is the largest pooled size class (64 MiB); larger
	// payloads fall back to the heap.
	maxPoolShift = 26
	// poolClasses counts the classes: four per doubling below the largest.
	poolClasses = 4*(maxPoolShift-minPoolShift) + 1
	// poolPoison overwrites recycled buffers in test binaries.
	poolPoison = 0xDB
)

// bufPool is one world's staging-buffer free lists; the zero value is an
// empty pool.
type bufPool struct {
	mu     sync.Mutex
	free   [poolClasses][][]byte
	parked map[*byte]bool // test binaries only: the buffers now in free
}

// poolClass returns the index and capacity of the smallest size class
// holding n bytes; the index is in range for n <= 1<<maxPoolShift. An n that
// is itself a class capacity maps to that class, which is how put
// recognizes pool buffers.
func poolClass(n int) (idx, size int) {
	if n <= 1<<minPoolShift {
		return 0, 1 << minPoolShift
	}
	k := bits.Len(uint(n-1)) - 1 // 2^k < n <= 2^(k+1)
	step := 1 << (k - 2)
	q := (n + step - 1) / step // quarter-steps of 2^k, in (4, 8]
	return 4*(k-minPoolShift) + q - 4, q * step
}

// get returns a length-n buffer whose capacity is the size class covering
// n. The contents are stale; callers overwrite all n bytes, so recycled
// bytes never leak between messages.
func (p *bufPool) get(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxPoolShift {
		return make([]byte, n)
	}
	idx, size := poolClass(n)
	p.mu.Lock()
	if l := p.free[idx]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[idx] = l[:len(l)-1]
		delete(p.parked, &b[0])
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, size)
}

// put returns a buffer to its size class. Only a capacity that is exactly a
// class capacity is accepted — every buffer get handed out, no sub-slice or
// caller slice; nil is dropped before p is touched, so Release works on a
// message that never had a pool. Test binaries poison the buffer first, so
// a reader that kept a released payload sees 0xDB rather than plausible
// bytes, and panic on a buffer already parked (two copies of one leased
// message each released it) rather than hand it to two messages later.
func (p *bufPool) put(b []byte) {
	c := cap(b)
	idx, size := poolClass(c)
	if size != c || c > 1<<maxPoolShift {
		return
	}
	b = b[:c]
	if testing.Testing() {
		for i := range b {
			b[i] = poolPoison
		}
	}
	p.mu.Lock()
	if testing.Testing() {
		if p.parked[&b[0]] {
			p.mu.Unlock()
			panic("mpi: staging buffer returned to the pool twice")
		}
		if p.parked == nil {
			p.parked = make(map[*byte]bool)
		}
		p.parked[&b[0]] = true
	}
	p.free[idx] = append(p.free[idx], b)
	p.mu.Unlock()
}

// GetBuf hands out a length-n buffer from the world's staging pool — the
// same free lists the message path draws from — for callers outside the
// package that stage transient I/O buffers (the delegation tier's read and
// epoch staging). The contents are stale pool bytes; callers must overwrite
// every byte they expose.
func (c *Comm) GetBuf(n int) []byte { return c.w.pool.get(n) }

// Recycle returns a delivered payload, or a GetBuf buffer, to the world's
// staging pool. The caller must be the buffer's sole owner: Recv and
// Alltoallv payloads each reach exactly one rank, so they may be recycled
// once consumed; AllgatherBytes results are shared by every rank and
// AlltoallvFlat's are slices of the sender's buffer, so neither may.
// Recycling does not touch the virtual-time or fault models.
func (c *Comm) Recycle(buf []byte) { c.w.pool.put(buf) }
