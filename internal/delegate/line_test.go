package delegate

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// The line-fill twins hand-drive one server: rank 0 builds the server state
// and calls its handlers directly for requests "from" rank 1, which only
// collects the replies. One server and one totally ordered request stream,
// so every instant is exact — no two multi-rank times are ever compared.

const lineDS = 256 // the rig's domain block: four 64-byte segments

// lineRig describes one hand-driven run.
type lineRig struct {
	cacheBlks int
	fileBytes int64 // the file holds expectByte(0, ·) up to here
	clients   int   // client ranks 1..clients collect replies (0 = 1)
	trace     *trace.Recorder
	inject    *faults.Injector
	retry     *faults.RetryPolicy
}

// lineReply is one collected reply, its payload copied out.
type lineReply struct {
	ok   bool
	code mpi.RPCErrCode
	err  string
	data []byte
	// at is the collecting client's clock once it took the reply: the
	// reply's arrival, as long as each client's replies arrive in the order
	// they were sent. wire is what the same reply takes from the server to
	// that client on an idle twin world: at = departure + wire.
	at   simtime.Time
	wire simtime.Duration
}

// machine is the rig's cluster: every rank on one node, so a reply's
// transfer is a memory copy that no other message can slow down.
func (r lineRig) machine() cluster.Machine {
	m := cluster.Lonestar()
	m.CoresPerNode = 1 + max(r.clients, 1)
	return m
}

// fsConfig is the rig's file system: a block is 4 simulated MiB, so its OST
// service outlasts the request overhead and a line's completions are
// distinct; readahead is off, so no request is a 30 µs window hit.
func (r lineRig) fsConfig() pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.ByteScale, cfg.ReadAhead, cfg.Faults = (4<<20)/lineDS, 0, r.inject
	return cfg
}

// newFS returns a file system holding the rig's file, stored host-side: no
// OST has served anything yet.
func (r lineRig) newFS() *pfs.FileSystem {
	fs := pfs.New(r.fsConfig())
	img := make([]byte, r.fileBytes)
	for i := range img {
		img[i] = expectByte(0, int64(i))
	}
	fs.Open("line").StoreDirect(0, img)
	return fs
}

// twinDone is when each of blks completes if posted alone, one after the
// other in that order, all departing at start on a fresh twin file system.
func (r lineRig) twinDone(start simtime.Time, blks ...int64) (map[int64]simtime.Time, error) {
	tw := storage.NewClient(r.newFS().Open("line"), 0, 0, nil)
	tw.SetRetryPolicy(faults.NoRetry())
	done := make(map[int64]simtime.Time)
	for _, blk := range blks {
		_, end, err := tw.ReadExtentsFrom("twin", trace.KindFetch, []storage.Request{{Off: blk * lineDS, Data: make([]byte, lineDS)}}, start)
		if err != nil {
			return nil, err
		}
		done[blk] = end
	}
	return done, nil
}

// endOfDrive marks the last reply a client collects; the rig sends it to
// every client once the drive returns.
const endOfDrive = -1

// run executes drive on the hand-driven server and returns the replies each
// client rank collected, in order, indexed by rank (index 0 is empty).
func (r lineRig) run(t *testing.T, drive func(d *lineDriver) error) [][]lineReply {
	t.Helper()
	cfg := Config{
		ServerRanks: 1, ServerCacheBlocks: r.cacheBlks,
		TCIO: tcio.Config{SegmentSize: lineDS / 4, NumSegments: 8, Retry: r.retry, Trace: r.trace},
	}
	procs := 1 + max(r.clients, 1)
	got := make([][]lineReply, procs)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: r.machine(), FS: r.newFS(), Faults: r.inject}, func(c *mpi.Comm) error {
		if c.Rank() > 0 {
			for {
				rep, err := c.RecvReply(0, tagReply)
				if err != nil {
					return err
				}
				if rep.Seq == endOfDrive {
					rep.Release()
					return nil
				}
				got[c.Rank()] = append(got[c.Rank()], lineReply{ok: rep.OK, code: rep.Code, err: rep.Err, data: bytes.Clone(rep.Data), at: c.Now()})
				rep.Release()
			}
		}
		cfg, err := cfg.Normalize(c.Size(), c.FS().Config().StripeSize)
		if err != nil {
			return err
		}
		d := &lineDriver{s: newServer(c, cfg, []int{0}, extent.Layout{P: 1, SegSize: lineDS})}
		if err := d.s.open(&mpi.RPCRequest{Op: mpi.OpOpen, Client: 1, Handle: 1, Data: []byte("line"), Off: int64(tcio.ReadMode)}); err != nil {
			return err
		}
		d.h = d.s.handles[1]
		// What sending one reply costs the server's clock (client 1 drops it).
		before := c.Now()
		if err := c.SendReply(1, tagReply, &mpi.RPCReply{OK: true}); err != nil {
			return err
		}
		d.send = c.Now().Sub(before)
		if err := drive(d); err != nil {
			return err
		}
		for cl := 1; cl < procs; cl++ {
			if err := c.SendReply(cl, tagReply, &mpi.RPCReply{Seq: endOfDrive}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got[1] = got[1][1:]
	r.wires(t, got)
	return got
}

// wires sets every collected reply's wire: each reply is sent again, to the
// same client, in a fresh world on the rig's machine, one second after the
// last one, and wire is its arrival minus its departure there.
func (r lineRig) wires(t *testing.T, got [][]lineReply) {
	t.Helper()
	departs, arrivals := make([][]simtime.Time, len(got)), make([][]simtime.Time, len(got))
	_, err := mpi.Run(mpi.Config{Procs: len(got), Machine: r.machine(), FS: r.newFS()}, func(c *mpi.Comm) error {
		if c.Rank() > 0 {
			for range got[c.Rank()] {
				rep, err := c.RecvReply(0, tagReply)
				if err != nil {
					return err
				}
				rep.Release()
				arrivals[c.Rank()] = append(arrivals[c.Rank()], c.Now())
			}
			return nil
		}
		for cl := 1; cl < len(got); cl++ {
			for _, rep := range got[cl] {
				c.AdvanceTo(c.Now().Add(simtime.Second))
				if err := c.SendReply(cl, tagReply, &mpi.RPCReply{OK: rep.ok, Code: rep.code, Err: rep.err, Data: rep.data}); err != nil {
					return err
				}
				departs[cl] = append(departs[cl], c.Now())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for cl := range got {
		for i := range got[cl] {
			got[cl][i].wire = arrivals[cl][i].Sub(departs[cl][i])
		}
	}
}

// lineDriver is the hand-driven server and the requests' running sequence.
type lineDriver struct {
	s    *server
	h    *handleFile
	send simtime.Duration // the clock charge of one SendReply
	seq  int64
}

// read serves client 1 a read of n bytes at the start of blk.
func (d *lineDriver) read(blk, n int64) error { return d.readAs(1, blk, n) }

// readAs serves client a read of n bytes at the start of blk.
func (d *lineDriver) readAs(client int, blk, n int64) error {
	d.seq++
	return d.s.read(&mpi.RPCRequest{Op: mpi.OpRead, Client: client, Handle: 1, Seq: d.seq, Off: blk * lineDS, Len: n})
}

// intent contributes client's read intent for the whole of blks to the
// handle's collective read epoch.
func (d *lineDriver) intent(client int, blks ...int64) error {
	d.seq++
	var runs []extent.Extent
	for _, blk := range blks {
		runs = append(runs, extent.Extent{Off: blk * lineDS, Len: lineDS})
	}
	return d.s.readIntent(&mpi.RPCRequest{Op: mpi.OpReadIntent, Client: client, Handle: 1, Seq: d.seq, Data: extent.AppendRuns(nil, runs)})
}

// write stages data at the start of blk (the credit it grants is never
// collected).
func (d *lineDriver) write(blk int64, data []byte) error {
	d.seq++
	return d.s.write(mpi.RPCRequest{Op: mpi.OpWrite, Client: 1, Handle: 1, Seq: d.seq, Off: blk * lineDS, Len: int64(len(data)), Data: data})
}

func (d *lineDriver) flush() error {
	return d.s.flush(&mpi.RPCRequest{Op: mpi.OpFlush, Client: 1, Handle: 1})
}

// resident lists the blocks the cache holds, ascending.
func (d *lineDriver) resident() []int64 {
	var blks []int64
	for key := range d.s.cache.entries {
		blks = append(blks, key.blk)
	}
	slices.Sort(blks)
	return blks
}

func (d *lineDriver) ready(blk int64) simtime.Time {
	return d.s.cache.entries[blockKey{name: "line", blk: blk}].Value.(*cacheEntry).ready
}

// expectBlock is the rig file's bytes [blk*lineDS, +n).
func expectBlock(blk, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = expectByte(0, blk*lineDS+int64(i))
	}
	return b
}

// TestLineFillCriticalBlockFirst is the exact twin of a line fill. A miss on
// block 1 posts [1, 0, 2, 3] as one batch at the server's present: every
// block's arrival instant is what the same four requests complete at when
// posted one by one at that start. The server's clock moves by one send per
// reply and never waits for a block: the miss's reply, then hits on blocks 0
// and 3 while they are still in flight, each reach the client at exactly its
// block's completion plus the reply's transfer, and a hit once the line has
// landed leaves as soon as it is sent. An in-flight hit is traced at its
// block's completion.
func TestLineFillCriticalBlockFirst(t *testing.T) {
	rec := &trace.Recorder{}
	rig := lineRig{cacheBlks: 8, fileBytes: 8 * lineDS, trace: rec}
	reads := []struct{ blk, n int64 }{{1, 32}, {0, 16}, {3, lineDS}, {2, 64}}
	depart := make([]simtime.Time, len(reads)) // each reply's expected departure
	replies := rig.run(t, func(d *lineDriver) error {
		done, err := rig.twinDone(d.s.c.Now(), 1, 0, 2, 3)
		if err != nil {
			return err
		}
		if !(done[1] < done[0] && done[0] < done[2] && done[2] < done[3]) {
			return fmt.Errorf("twin completions %v are not distinct and ordered as posted", done)
		}
		for i, rd := range reads {
			if i == len(reads)-1 {
				d.s.c.AdvanceTo(done[3]) // the whole line has landed
			}
			before := d.s.c.Now()
			if err := d.read(rd.blk, rd.n); err != nil {
				return err
			}
			if now, want := d.s.c.Now(), before.Add(d.send); now != want {
				return fmt.Errorf("serving block %d moved the server to %d, want %d + send %d: it waited %d for the file system",
					rd.blk, now, before, d.send, now.Sub(want))
			}
			depart[i] = max(done[rd.blk], d.s.c.Now())
		}
		for blk, want := range done {
			if got := d.ready(blk); got != want {
				return fmt.Errorf("block %d arrives at %d, posted alone it completes at %d", blk, got, want)
			}
		}
		if st := d.s.stats; st.FSReads != 4 || st.CacheMisses != 1 || st.CacheHits != 3 || st.CacheEvictions != 0 {
			return fmt.Errorf("counters %+v, want 4 fs reads, 1 miss, 3 hits", st)
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1, 2, 3}) {
			return fmt.Errorf("resident %v, want the line 0-3", got)
		}
		evs := rec.Events()
		served := slices.IndexFunc(evs, func(ev trace.Event) bool {
			return ev.Kind == trace.KindCacheServe && ev.Detail == "blk=3"
		})
		if served < 0 {
			return fmt.Errorf("the hit on block 3 left no cache-serve event")
		}
		if at := evs[served].Start; at != done[3] {
			return fmt.Errorf("the in-flight hit on block 3 is traced at %d, want its bytes' arrival %d", at, done[3])
		}
		return nil
	})[1]
	for i, rd := range reads {
		rep := replies[i]
		if !rep.ok || !bytes.Equal(rep.data, expectBlock(rd.blk, rd.n)) {
			t.Errorf("reply %d: ok=%v, bytes diverge from the file", i, rep.ok)
		}
		if want := depart[i].Add(rep.wire); rep.at != want {
			t.Errorf("reply for block %d arrived at %d, want %d (departure %d + transfer %d)", rd.blk, rep.at, want, depart[i], rep.wire)
		}
	}
}

// TestServerServesDuringFill: the server never parks on the file system.
// Client 2's miss on block 5 fills the line 4-7, which lands before the
// server moves on. Client 1 then misses block 1, whose line starts landing
// at T, and client 2's next read — block 6, resident — is answered at once:
// its reply reaches client 2 before T, while client 1's reaches client 1 at
// T plus its transfer.
func TestServerServesDuringFill(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 8 * lineDS, clients: 2}
	var fill simtime.Time // T: when block 1 lands
	got := rig.run(t, func(d *lineDriver) error {
		if err := d.readAs(2, 5, lineDS); err != nil {
			return err
		}
		d.s.c.AdvanceTo(d.ready(7))
		if err := d.readAs(1, 1, lineDS); err != nil {
			return err
		}
		fill = d.ready(1)
		return d.readAs(2, 6, lineDS)
	})
	miss, hit := got[1][0], got[2][1]
	if !miss.ok || !bytes.Equal(miss.data, expectBlock(1, lineDS)) || !hit.ok || !bytes.Equal(hit.data, expectBlock(6, lineDS)) {
		t.Fatalf("miss ok=%v, hit ok=%v, or their bytes diverge from the file", miss.ok, hit.ok)
	}
	if hit.at >= fill {
		t.Errorf("client 2's hit on a resident block arrived at %d, not before client 1's block landed at %d: the server waited for another client's fill", hit.at, fill)
	}
	if want := fill.Add(miss.wire); miss.at != want {
		t.Errorf("client 1's miss arrived at %d, want its block's arrival %d + transfer %d", miss.at, fill, miss.wire)
	}
}

// TestReadEpochRepliesWhenItsBlocksLand: a collective read epoch answers
// each client when its own blocks exist, not at the batch's end, and admits
// what it fetched with each block's own completion. Client 1's miss on block
// 0 leaves the line 0-3 in flight. In the epoch client 1 asks only for block
// 3, a hit still arriving, and client 2 for block 5, which the epoch fetches
// behind the line. Client 1's reply reaches it at block 3's arrival plus the
// transfer, before block 5 lands; client 2's at block 5's. Client 1's later
// independent read of block 5 is a hit that waits exactly until block 5
// lands.
func TestReadEpochRepliesWhenItsBlocksLand(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 8 * lineDS, clients: 2}
	var ready3, ready5 simtime.Time
	got := rig.run(t, func(d *lineDriver) error {
		if err := d.readAs(1, 0, lineDS); err != nil {
			return err
		}
		if err := d.intent(1, 3); err != nil {
			return err
		}
		if err := d.intent(2, 5); err != nil {
			return err
		}
		ready3, ready5 = d.ready(3), d.ready(5)
		if ready3 >= ready5 {
			return fmt.Errorf("block 3 lands at %d, block 5 at %d: want 5 queued behind the line", ready3, ready5)
		}
		if err := d.readAs(1, 5, lineDS); err != nil {
			return err
		}
		if st := d.s.stats; st.FSReads != 5 || st.CacheMisses != 2 || st.CacheHits != 2 || st.ReadEpochs != 1 || st.CollectiveBlocks != 2 {
			return fmt.Errorf("counters %+v, want 5 fs reads, 2 misses, 2 hits, 1 epoch of 2 blocks", st)
		}
		return nil
	})
	for _, tc := range []struct {
		name  string
		rep   lineReply
		blk   int64
		ready simtime.Time
	}{
		{"client 1's epoch reply", got[1][1], 3, ready3},
		{"client 2's epoch reply", got[2][0], 5, ready5},
		{"client 1's later hit", got[1][2], 5, ready5},
	} {
		if !tc.rep.ok || !bytes.Equal(tc.rep.data, expectBlock(tc.blk, lineDS)) {
			t.Errorf("%s: ok=%v, bytes diverge from block %d", tc.name, tc.rep.ok, tc.blk)
		}
		if want := tc.ready.Add(tc.rep.wire); tc.rep.at != want {
			t.Errorf("%s arrived at %d, want block %d's arrival %d + transfer %d", tc.name, tc.rep.at, tc.blk, tc.ready, tc.rep.wire)
		}
	}
}

// TestLineFillClippedAtEOF: a line stops at the file's end. With 5 blocks
// and a fraction, or exactly 6, a miss on block 4 reads blocks 4 and 5 and
// nothing at or past Size(); the partial block serves its real bytes.
func TestLineFillClippedAtEOF(t *testing.T) {
	for _, size := range []int64{5*lineDS + 100, 6 * lineDS} {
		rec := &trace.Recorder{}
		rig := lineRig{cacheBlks: 8, fileBytes: size, trace: rec}
		replies := rig.run(t, func(d *lineDriver) error {
			if err := d.read(4, lineDS); err != nil {
				return err
			}
			if got := d.resident(); !slices.Equal(got, []int64{4, 5}) {
				return fmt.Errorf("size %d: resident %v, want 4 and 5", size, got)
			}
			return d.read(5, 100)
		})[1]
		var fetched []string
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindFetch {
				fetched = append(fetched, ev.Detail)
			}
		}
		if !slices.Equal(fetched, []string{"blk=4", "blk=5"}) {
			t.Errorf("size %d: fetched %v, want blk=4 then blk=5", size, fetched)
		}
		if !replies[1].ok || !bytes.Equal(replies[1].data, expectBlock(5, 100)) {
			t.Errorf("size %d: the last block's bytes diverge from the file", size)
		}
	}
}

// TestLineFillNeverExceedsCapacity: a line is clipped at ServerCacheBlocks,
// so with room for 1, 2 or 3 blocks a fill never admits more than fit — the
// first miss evicts nothing, and no moment sees more residents than capacity.
func TestLineFillNeverExceedsCapacity(t *testing.T) {
	for capacity := 1; capacity <= 3; capacity++ {
		rig := lineRig{cacheBlks: capacity, fileBytes: 8 * lineDS}
		rig.run(t, func(d *lineDriver) error {
			for i, blk := range []int64{0, 3, 1, 6, 0} {
				if err := d.read(blk, 8); err != nil {
					return err
				}
				if n := len(d.resident()); n > capacity || d.s.cache.order.Len() != n {
					return fmt.Errorf("capacity %d: %d resident after reading block %d", capacity, n, blk)
				}
				if i == 0 && (d.s.stats.FSReads != int64(capacity) || d.s.stats.CacheEvictions != 0) {
					return fmt.Errorf("capacity %d: first miss read %d blocks and evicted %d", capacity, d.s.stats.FSReads, d.s.stats.CacheEvictions)
				}
			}
			return nil
		})
	}
}

// TestLineFillSkipsDirtyBlocks: a block with staged-but-undrained writes is
// never admitted by a line. The miss on block 0 fetches 0, 1 and 3 around
// dirty block 2; a read of block 2 bypasses the cache, without the server
// waiting for it, and still sees the pre-flush file; after the flush epoch
// block 2 is clean, misses, fills
// alone (its line is resident) and serves the new bytes.
func TestLineFillSkipsDirtyBlocks(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS}
	fresh := bytes.Repeat([]byte{0xA5}, lineDS)
	replies := rig.run(t, func(d *lineDriver) error {
		if err := d.write(2, bytes.Clone(fresh)); err != nil {
			return err
		}
		if err := d.read(0, lineDS); err != nil {
			return err
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1, 3}) {
			return fmt.Errorf("resident %v after the miss on block 0, want 0, 1 and 3", got)
		}
		before := d.s.c.Now()
		if err := d.read(2, lineDS); err != nil { // dirty bypass
			return err
		}
		if now, want := d.s.c.Now(), before.Add(d.send); now != want {
			return fmt.Errorf("the bypass read moved the server to %d, want %d: it waited %d for the file system", now, want, now.Sub(want))
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1, 3}) {
			return fmt.Errorf("the bypass read cached something: resident %v", got)
		}
		if err := d.flush(); err != nil {
			return err
		}
		if err := d.read(2, lineDS); err != nil {
			return err
		}
		if st := d.s.stats; st.FSReads != 5 || st.CacheMisses != 3 || st.CacheHits != 0 {
			return fmt.Errorf("counters %+v, want 5 fs reads (3 + bypass + 1) and 3 misses", st)
		}
		return d.read(2, lineDS)
	})[1]
	for i, want := range [][]byte{expectBlock(0, lineDS), expectBlock(2, lineDS), nil, fresh, fresh} {
		if !replies[i].ok || !bytes.Equal(replies[i].data, want) {
			t.Errorf("reply %d: ok=%v, unexpected bytes", i, replies[i].ok)
		}
	}
}

// TestFlushWritesThroughInFlightEntry: a flush epoch that drains into a
// block whose line entry has not arrived yet still writes through, and the
// next read of the block — a hit — sees the new bytes, not the ones the
// fill read.
func TestFlushWritesThroughInFlightEntry(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS}
	fresh := bytes.Repeat([]byte{0x5A}, 64)
	replies := rig.run(t, func(d *lineDriver) error {
		if err := d.read(0, lineDS); err != nil {
			return err
		}
		if now, ready := d.s.c.Now(), d.ready(3); ready <= now {
			return fmt.Errorf("block 3 arrived at %d, before the flush at %d: nothing in flight", ready, now)
		}
		if err := d.write(3, bytes.Clone(fresh)); err != nil {
			return err
		}
		if err := d.flush(); err != nil {
			return err
		}
		if err := d.read(3, lineDS); err != nil {
			return err
		}
		if st := d.s.stats; st.FSReads != 4 || st.CacheHits != 1 {
			return fmt.Errorf("counters %+v, want the 4-block fill and one hit", st)
		}
		return nil
	})[1]
	want := append(bytes.Clone(fresh), expectBlock(3, lineDS)[64:]...)
	if !replies[2].ok || !bytes.Equal(replies[2].data, want) {
		t.Errorf("read after the flush: ok=%v, bytes are not the drained ones over the old block", replies[2].ok)
	}
}

// TestLineFillFailureIsItsOwn: with no retry budget, block 2's read faults
// and blocks 0, 1 and 3 read clean (the seed is searched for that pattern;
// rolls are a pure function of it). The miss on block 0 posts [0, 1, 2, 3]:
// block 2 fails only itself — the reply is OK, blocks 0 and 1 are cached,
// nothing is cached for the failed block 2 or the unissued block 3, and
// their buffers go back to the pool once (a second release panics). A miss
// on block 2 itself then surfaces the typed error, and block 3 still fills.
func TestLineFillFailureIsItsOwn(t *testing.T) {
	rule := faults.Rule{Prob: 0.5}
	seed := int64(1)
	for ; ; seed++ {
		probe := faults.New(seed).Set(faults.SiteOSTRead, rule)
		var faulted [4]bool
		for blk := range faulted {
			faulted[blk] = probe.Should(faults.SiteOSTRead, 0, int64(blk)*lineDS, lineDS, 0)
		}
		if faulted == [4]bool{false, false, true, false} {
			break
		}
	}
	noRetry := faults.NoRetry()
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS, retry: &noRetry,
		inject: faults.New(seed).Set(faults.SiteOSTRead, rule)}
	replies := rig.run(t, func(d *lineDriver) error {
		if err := d.read(0, lineDS); err != nil {
			return err
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1}) {
			return fmt.Errorf("resident %v after the line lost block 2, want 0 and 1", got)
		}
		if st := d.s.stats; st.FSReads != 2 || st.CacheMisses != 1 {
			return fmt.Errorf("counters %+v, want 2 fs reads, 1 miss", st)
		}
		if err := d.read(2, lineDS); err != nil {
			return err
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1}) {
			return fmt.Errorf("resident %v after the failed demand fill, want 0 and 1", got)
		}
		if err := d.read(3, lineDS); err != nil {
			return err
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1, 3}) {
			return fmt.Errorf("resident %v after block 3's own miss, want 0, 1 and 3", got)
		}
		return nil
	})[1]
	if !replies[0].ok || !bytes.Equal(replies[0].data, expectBlock(0, lineDS)) {
		t.Errorf("demand reply: ok=%v — a line block's failure reached the demand", replies[0].ok)
	}
	if replies[1].ok || replies[1].code != mpi.RPCErrExhausted {
		t.Errorf("miss on the faulting block: ok=%v code=%d, want the typed exhausted-retries error", replies[1].ok, replies[1].code)
	}
	if !replies[2].ok || !bytes.Equal(replies[2].data, expectBlock(3, lineDS)) {
		t.Errorf("block 3 after the failures: ok=%v", replies[2].ok)
	}
}
