package delegate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// readRunOpts parameterizes readWorkload.
type readRunOpts struct {
	procs      int
	servers    int
	domain     int64 // domain block size: four tcio segments (0 = 256)
	cacheBlks  int
	quantum    int64
	rounds     int   // read passes over the pattern (0 = 1)
	fileBlocks int64 // file size in domain blocks
	shared     bool  // true: every client reads every block; false: block-disjoint slices
	// orderSeed, when nonzero, seeds the host order requests reach the
	// servers in: each client reads its blocks in its own shuffled order
	// behind Gosched jitter, and the clients' first reads go out one at a
	// time in a shuffled order. Virtual time never sees any of it.
	orderSeed int64
	inject    *faults.Injector
	retry     *faults.RetryPolicy
	trace     *trace.Recorder
}

// readRunOut is one readWorkload execution's observables.
type readRunOut struct {
	rep     mpi.Report
	img     []byte
	stats   []Stats
	servers []ServerStats
	// passes[client][round] is the virtual time the client spent in the
	// round's reads.
	passes  [][]simtime.Duration
	readErr error // first read error any rank observed (world still completed)
}

// readWorkload writes a file through the tier (fault-free writes), then
// runs `rounds` read passes and verifies every byte. Reads are block-aligned: with shared=false client i reads
// exactly the blocks ≡ i (mod clients), so the disarmed tier's per-client
// request identities never race; with shared=true every client reads every
// block — the cross-client overlap case. A read error is recorded (not
// fatal) so the world shuts down cleanly and the test can assert on the
// error's type.
func readWorkload(t *testing.T, o readRunOpts) readRunOut {
	t.Helper()
	if o.domain == 0 {
		o.domain = 256
	}
	if o.rounds == 0 {
		o.rounds = 1
	}
	m := cluster.Lonestar()
	m.CoresPerNode = 4
	fscfg := pfs.DefaultConfig()
	fscfg.Faults = o.inject
	fs := pfs.New(fscfg)
	col := &Collector{}
	cfg := Config{
		ServerRanks:       o.servers,
		ServerCacheBlocks: o.cacheBlks,
		ReadQuantum:       o.quantum,
		TCIO: tcio.Config{
			SegmentSize: o.domain / 4, NumSegments: 8,
			Retry: o.retry,
			Trace: o.trace,
		},
		Collect: col,
	}
	out := readRunOut{stats: make([]Stats, o.procs)}
	readErrs := make([]error, o.procs)
	fileBytes := o.fileBlocks * o.domain
	clients := o.procs - o.servers
	out.passes = make([][]simtime.Duration, clients)
	// turns[i] opens when the client in start position i may send its first
	// read; it opens turns[i+1] once that read has been answered.
	turns := make([]chan struct{}, clients+1)
	for i := range turns {
		turns[i] = make(chan struct{})
	}
	close(turns[0])
	startPos := make([]int, clients)
	if o.orderSeed != 0 {
		startPos = rand.New(rand.NewSource(o.orderSeed)).Perm(clients)
	}
	rep, err := mpi.Run(mpi.Config{Procs: o.procs, Machine: m, FS: fs, Faults: o.inject}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			w, err := tr.Open("rd", tcio.WriteMode)
			if err != nil {
				return err
			}
			buf := make([]byte, o.domain)
			for blk := int64(tr.ClientIndex()); blk < o.fileBlocks; blk += int64(tr.NumClients()) {
				off := blk * o.domain
				for i := range buf {
					buf[i] = expectByte(0, off+int64(i))
				}
				if err := w.WriteAt(off, buf); err != nil {
					return err
				}
			}
			if err := w.Close(); err != nil {
				return err
			}
			r, err := tr.Open("rd", tcio.ReadMode)
			if err != nil {
				return err
			}
			// fail records a read error and shuts the rank down cleanly so
			// the world (and its stats) still completes.
			fail := func(err error) error {
				readErrs[c.Rank()] = err
				out.stats[c.Rank()] = r.Stats()
				return r.Close()
			}
			var blks []int64
			for blk := int64(0); blk < o.fileBlocks; blk++ {
				if o.shared || blk%int64(tr.NumClients()) == int64(tr.ClientIndex()) {
					blks = append(blks, blk)
				}
			}
			rng := rand.New(rand.NewSource(o.orderSeed*131 + int64(tr.ClientIndex())))
			myTurn := startPos[tr.ClientIndex()]
			out.passes[tr.ClientIndex()] = make([]simtime.Duration, o.rounds)
			for round := 0; round < o.rounds; round++ {
				start := c.Now()
				if o.orderSeed != 0 {
					rng.Shuffle(len(blks), func(i, j int) { blks[i], blks[j] = blks[j], blks[i] })
				}
				for i, blk := range blks {
					first := o.orderSeed != 0 && round == 0 && i == 0
					if first {
						<-turns[myTurn]
					}
					if o.orderSeed != 0 {
						for range rng.Intn(8) {
							runtime.Gosched()
						}
					}
					off, dst := blk*o.domain, make([]byte, o.domain)
					err := r.ReadAt(off, dst)
					if first {
						close(turns[myTurn+1])
					}
					if err != nil {
						return fail(err)
					}
					for j, got := range dst {
						if want := expectByte(0, off+int64(j)); got != want {
							return fmt.Errorf("client %d round %d byte %d: got %d want %d",
								tr.ClientIndex(), round, off+int64(j), got, want)
						}
					}
				}
				out.passes[tr.ClientIndex()][round] = c.Now().Sub(start)
			}
			out.stats[c.Rank()] = r.Stats()
			return r.Close()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	out.rep = rep
	out.img = fs.Open("rd").Snapshot()
	if int64(len(out.img)) > fileBytes {
		out.img = out.img[:fileBytes]
	}
	out.servers = col.Servers()
	for _, e := range readErrs {
		if e != nil {
			out.readErr = e
			break
		}
	}
	if out.readErr == nil {
		for off := int64(0); off < int64(len(out.img)); off++ {
			if out.img[off] != expectByte(0, off) {
				t.Fatalf("file byte %d = %d, want %d", off, out.img[off], expectByte(0, off))
			}
		}
	}
	return out
}

// TestDelegateReadPathDisarmed is the degenerate pin for the read engine:
// with ServerCacheBlocks == 0 and ReadQuantum == 0 the tier must keep the
// uncached per-request identity — every client read piece is exactly one
// file system read of exactly its length, all cache counters stay zero, no cache-serve events reach the trace, and two runs agree on
// every counter.
func TestDelegateReadPathDisarmed(t *testing.T) {
	run := func() (readRunOut, map[trace.Kind]trace.KindStats) {
		rec := &trace.Recorder{}
		o := readWorkload(t, readRunOpts{
			procs: 6, servers: 2, fileBlocks: 12, rounds: 2, trace: rec,
		})
		return o, rec.Summary()
	}
	o1, sum1 := run()
	o2, _ := run()

	var fsReads, pieces, pieceBytes int64
	for _, s := range o1.servers {
		if s.CacheHits+s.CacheMisses+s.CacheEvictions != 0 {
			t.Fatalf("server %d: disarmed cache counted %+v", s.Rank, s)
		}
		fsReads += s.FSReads
	}
	for _, st := range o1.stats {
		pieces += st.ReadReqs
		pieceBytes += st.ReadBytes
	}
	if fsReads != pieces || pieces == 0 {
		t.Fatalf("per-request identity broken: %d fs reads for %d client pieces", fsReads, pieces)
	}
	if o1.rep.FS.Reads != fsReads {
		t.Fatalf("file system saw %d reads, servers issued %d", o1.rep.FS.Reads, fsReads)
	}
	if o1.rep.FS.BytesRead != pieceBytes {
		t.Fatalf("file system read %d bytes, clients asked for %d", o1.rep.FS.BytesRead, pieceBytes)
	}
	if _, ok := sum1[trace.KindCacheServe]; ok {
		t.Fatal("disarmed run emitted cache-serve trace events")
	}
	if !bytes.Equal(o1.img, o2.img) {
		t.Fatal("two disarmed runs differ in file bytes")
	}
	for i := range o1.servers {
		if o1.servers[i] != o2.servers[i] {
			t.Fatalf("server %d counters differ across runs:\n%+v\n%+v",
				o1.servers[i].Rank, o1.servers[i], o2.servers[i])
		}
	}
}

// TestDelegateQuantumSchedulingIdentity pins that ReadQuantum changes
// only scheduling: the full server counter set, the file image, and the
// network totals must match the quantum-0 run exactly — the DRR loop may
// reorder service across clients but must not change what is served.
func TestDelegateQuantumSchedulingIdentity(t *testing.T) {
	base := readWorkload(t, readRunOpts{procs: 6, servers: 2, fileBlocks: 12, rounds: 2})
	drr := readWorkload(t, readRunOpts{procs: 6, servers: 2, fileBlocks: 12, rounds: 2, quantum: 128})
	if !bytes.Equal(base.img, drr.img) {
		t.Fatal("read quantum changed the file bytes")
	}
	// PeakOverlap and CongestedMsgs are concurrency gauges — how many
	// transfers happen to be in flight at once is exactly the scheduling
	// DRR is allowed to change — so the identity covers the counts only.
	bn, dn := base.rep.Net, drr.rep.Net
	bn.PeakOverlap, dn.PeakOverlap = 0, 0
	bn.CongestedMsgs, dn.CongestedMsgs = 0, 0
	if bn != dn {
		t.Fatalf("read quantum changed network totals:\nq=0 %+v\nq>0 %+v", bn, dn)
	}
	for i := range base.servers {
		if base.servers[i] != drr.servers[i] {
			t.Fatalf("server %d counters differ under DRR:\nq=0 %+v\nq>0 %+v",
				base.servers[i].Rank, base.servers[i], drr.servers[i])
		}
	}
}

// TestDelegateCacheCoherence drives the coherence protocol end to end on
// one server: a read fills the cache; a repeat read hits byte-exactly; a
// staged-but-undrained write forces the block to bypass the cache (the
// read still sees the pre-flush file bytes); the flush epoch writes the
// drained runs through; and the next read hits the updated entry.
func TestDelegateCacheCoherence(t *testing.T) {
	const ds = int64(256)
	m := cluster.Lonestar()
	m.CoresPerNode = 2
	fs := pfs.New(pfs.DefaultConfig())
	col := &Collector{}
	cfg := Config{
		ServerRanks: 1, ServerCacheBlocks: 4,
		TCIO:    tcio.Config{SegmentSize: ds / 4, NumSegments: 8},
		Collect: col,
	}
	mk := func(v byte) []byte {
		b := make([]byte, ds)
		for i := range b {
			b[i] = v + byte(i)
		}
		return b
	}
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, FS: fs}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			// Seed block 0 with version A and flush it to the file system.
			w, err := tr.Open("coh", tcio.WriteMode)
			if err != nil {
				return err
			}
			if err := w.WriteAt(0, mk(1)); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			r, err := tr.Open("coh", tcio.ReadMode)
			if err != nil {
				return err
			}
			dst := make([]byte, ds)
			expect := func(step string, want []byte) error {
				if err := r.ReadAt(0, dst); err != nil {
					return fmt.Errorf("%s: %w", step, err)
				}
				if !bytes.Equal(dst, want) {
					return fmt.Errorf("%s: read bytes diverge from expected image", step)
				}
				return nil
			}
			if err := expect("miss+fill", mk(1)); err != nil {
				return err
			}
			if err := expect("hit", mk(1)); err != nil {
				return err
			}
			// Stage version B without flushing: the block is dirty, so the
			// read must bypass the cache and still see A — the drain has not
			// run, and a stale cache serve of a half-applied state would be
			// the bug the dirty counter exists to prevent.
			if err := w.WriteAt(0, mk(2)); err != nil {
				return err
			}
			if err := expect("dirty bypass", mk(1)); err != nil {
				return err
			}
			if err := w.Flush(); err != nil { // drain + write-through
				return err
			}
			if err := expect("write-through hit", mk(2)); err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			return r.Close()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := col.Servers()
	if len(ss) != 1 {
		t.Fatalf("collected %d servers, want 1", len(ss))
	}
	s := ss[0]
	// miss+fill, hit, dirty-bypass miss, write-through hit.
	if s.CacheHits != 2 || s.CacheMisses != 2 || s.CacheEvictions != 0 {
		t.Fatalf("cache counters hits=%d misses=%d evictions=%d, want 2/2/0",
			s.CacheHits, s.CacheMisses, s.CacheEvictions)
	}
	if s.ReadReqs != 4 || s.CacheHits+s.CacheMisses != s.ReadReqs {
		t.Fatalf("hits+misses != reads served: %+v", s)
	}
	// One line fill (the file is a single block) plus one dirty-bypass per-request read.
	if s.FSReads != 2 {
		t.Fatalf("fs reads = %d, want 2 (one fill, one dirty bypass)", s.FSReads)
	}
}

// TestDelegateCacheHotReread pins the win the cache exists for: with the
// cache armed and every client re-reading the same blocks, the file
// system sees each block exactly once; disarmed, it sees every request.
func TestDelegateCacheHotReread(t *testing.T) {
	const blocks = 6
	cold := readWorkload(t, readRunOpts{procs: 5, servers: 1, fileBlocks: blocks, rounds: 3, shared: true})
	hot := readWorkload(t, readRunOpts{procs: 5, servers: 1, fileBlocks: blocks, rounds: 3, shared: true, cacheBlks: blocks})

	var coldReads, hotReads, hits, misses int64
	for _, s := range cold.servers {
		coldReads += s.FSReads
	}
	for _, s := range hot.servers {
		hotReads += s.FSReads
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	const served = 4 * 3 * blocks // 4 clients × 3 rounds × blocks
	if coldReads != served {
		t.Fatalf("cold tier issued %d fs reads, want %d", coldReads, served)
	}
	if hotReads != blocks {
		t.Fatalf("hot cache issued %d fs reads, want one fill per block (%d)", hotReads, blocks)
	}
	// A miss fills its whole line: blocks 0-3 and 4-5 are two lines.
	const lines = (blocks + lineBlocks - 1) / lineBlocks
	if misses != lines || hits != served-lines {
		t.Fatalf("hits=%d misses=%d for %d served reads, want %d misses", hits, misses, int64(served), lines)
	}
	if !bytes.Equal(cold.img, hot.img) {
		t.Fatal("cache changed file bytes")
	}
	// With one client the server takes its requests in one total order, so
	// both pass times are exact: the hot re-read, served from server memory,
	// must beat the cold pass that filled the cache from the file system.
	t.Run("one-client", func(t *testing.T) {
		o := readWorkload(t, readRunOpts{procs: 2, servers: 1, fileBlocks: blocks, rounds: 2, cacheBlks: blocks})
		cold, hot := o.passes[0][0], o.passes[0][1]
		if hot <= 0 || hot >= cold {
			t.Fatalf("hot pass %v, cold pass %v: want 0 < hot < cold", hot, cold)
		}
		if s := o.servers[0]; s.FSReads != blocks || s.CacheHits+s.CacheMisses != 2*blocks {
			t.Fatalf("server %+v: want %d fs reads and %d hits+misses", s, blocks, 2*blocks)
		}
	})
}

// TestDelegateReadChaos is the tier's chaos suite: with OST read faults
// armed, fault and retry counts must be seed-deterministic across runs with
// the cache disarmed, armed, and under DRR; with OST write faults armed, so
// must the servers' epoch drains. Cache fills carry the server's identity
// and the cache never evicts, and a drain is the sorted staged-record set,
// so no count depends on which client's request arrived first.
func TestDelegateReadChaos(t *testing.T) {
	const blocks = 12
	cases := []struct {
		name string
		site faults.Site
		o    readRunOpts
	}{
		{"disarmed", faults.SiteOSTRead, readRunOpts{procs: 5, servers: 1, fileBlocks: blocks, rounds: 2}},
		{"cached", faults.SiteOSTRead, readRunOpts{procs: 5, servers: 1, fileBlocks: blocks, rounds: 2, cacheBlks: blocks}},
		{"cached-drr", faults.SiteOSTRead, readRunOpts{procs: 5, servers: 1, fileBlocks: blocks, rounds: 2, cacheBlks: blocks, quantum: 64}},
		// Two servers own alternate blocks; each drains its six as six runs.
		{"write-faults", faults.SiteOSTWrite, readRunOpts{procs: 6, servers: 2, fileBlocks: blocks}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (readRunOut, int64) {
				inj := faults.New(1234)
				inj.Set(tc.site, faults.Rule{Prob: 0.25})
				o := tc.o
				o.inject = inj
				out := readWorkload(t, o)
				if out.readErr != nil {
					t.Fatalf("read failed under the default retry policy: %v", out.readErr)
				}
				return out, inj.Injected(tc.site)
			}
			o1, inj1 := run()
			o2, inj2 := run()
			if inj1 == 0 {
				t.Fatal("chaos run injected nothing")
			}
			if inj1 != inj2 {
				t.Fatalf("injected counts differ across runs: %d vs %d", inj1, inj2)
			}
			var retries int64
			for i := range o1.servers {
				if o1.servers[i] != o2.servers[i] {
					t.Fatalf("server %d counters differ across chaos runs:\n%+v\n%+v",
						o1.servers[i].Rank, o1.servers[i], o2.servers[i])
				}
				retries += o1.servers[i].Retries
			}
			if retries == 0 {
				t.Fatal("no retries absorbed despite injected faults")
			}
			if o1.rep.FS.Writes != o2.rep.FS.Writes {
				t.Fatalf("file system writes differ across chaos runs: %d vs %d", o1.rep.FS.Writes, o2.rep.FS.Writes)
			}
			if !bytes.Equal(o1.img, o2.img) {
				t.Fatal("chaos runs differ in file bytes")
			}
		})
	}
}

// TestFillArrivalOrderIndependent: every client reads every block, so which
// client's request reaches a server first for a block is up to the host.
// Under seeded arrival orders and GOMAXPROCS 1, 2 and 8, with OST read
// faults armed, each server's file system reads, hits, misses and absorbed
// retries and the injected-fault total must not move: what is fetched, and
// under which fault-roll identity, is a function of the blocks the program
// touches. A fill issued under the first requester's identity fails this.
func TestFillArrivalOrderIndependent(t *testing.T) {
	const orders = 6
	type counts struct{ fsReads, hits, misses, retries int64 }
	run := func(seed int64) ([]counts, int64) {
		inj := faults.New(1234)
		inj.Set(faults.SiteOSTRead, faults.Rule{Prob: 0.25})
		out := readWorkload(t, readRunOpts{
			procs: 6, servers: 2, fileBlocks: 16, cacheBlks: 16, rounds: 2,
			shared: true, inject: inj, orderSeed: seed,
		})
		if out.readErr != nil {
			t.Fatalf("order seed %d: %v", seed, out.readErr)
		}
		var got []counts
		for _, s := range out.servers {
			got = append(got, counts{s.FSReads, s.CacheHits, s.CacheMisses, s.Retries})
		}
		return got, inj.Injected(faults.SiteOSTRead)
	}
	want, wantInjected := run(1)
	if wantInjected == 0 {
		t.Fatal("chaos run injected nothing")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= orders; seed++ {
			got, injected := run(seed)
			if !slices.Equal(got, want) || injected != wantInjected {
				t.Fatalf("GOMAXPROCS %d, order seed %d: per-server {fsReads hits misses retries} %v, %d injected; order seed 1 gave %v, %d",
					procs, seed, got, injected, want, wantInjected)
			}
		}
	}
}

// TestDelegateReadExhaustedTyped pins the typed error path: with a
// zero-retry budget and a certain read fault, the client must surface
// faults.ErrExhaustedRetries through errors.Is — across the wire, where
// only the reply's code field can carry the class. Both the per-request
// path (cache disarmed) and the line fill path (cache armed) must
// round-trip it.
func TestDelegateReadExhaustedTyped(t *testing.T) {
	for _, cacheBlks := range []int{0, 4} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlks), func(t *testing.T) {
			pol := faults.NoRetry()
			inj := faults.New(7)
			inj.Set(faults.SiteOSTRead, faults.Rule{Prob: 1})
			o := readWorkload(t, readRunOpts{
				procs: 3, servers: 1, fileBlocks: 4,
				cacheBlks: cacheBlks, inject: inj, retry: &pol,
			})
			if o.readErr == nil {
				t.Fatal("certain fault with zero retries did not fail the read")
			}
			if !errors.Is(o.readErr, faults.ErrExhaustedRetries) {
				t.Fatalf("read error %v is not typed ErrExhaustedRetries", o.readErr)
			}
		})
	}
}
