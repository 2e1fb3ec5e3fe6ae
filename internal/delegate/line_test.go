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
	replies   int   // replies the drive produces (rank 1 collects them all)
	trace     *trace.Recorder
	inject    *faults.Injector
	retry     *faults.RetryPolicy
}

// lineReply is one collected reply, its payload copied out.
type lineReply struct {
	ok   bool
	code mpi.RPCErrCode
	data []byte
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

// run executes drive on the hand-driven server and returns the replies
// rank 1 collected, in order.
func (r lineRig) run(t *testing.T, drive func(d *lineDriver) error) []lineReply {
	t.Helper()
	m := cluster.Lonestar()
	m.CoresPerNode = 2
	cfg := Config{
		ServerRanks: 1, ServerCacheBlocks: r.cacheBlks,
		TCIO: tcio.Config{SegmentSize: lineDS / 4, NumSegments: 8, Retry: r.retry, Trace: r.trace},
	}
	var got []lineReply
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, FS: r.newFS(), Faults: r.inject}, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			for range 1 + r.replies { // the first measures the send cost
				rep, err := c.RecvReply(0, tagReply)
				if err != nil {
					return err
				}
				got = append(got, lineReply{rep.OK, rep.Code, bytes.Clone(rep.Data)})
				rep.Release()
			}
			return nil
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
		// What sending one reply costs the server's clock.
		before := c.Now()
		if err := c.SendReply(1, tagReply, &mpi.RPCReply{OK: true}); err != nil {
			return err
		}
		d.send = c.Now().Sub(before)
		return drive(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got[1:]
}

// lineDriver is the hand-driven server and the requests' running sequence.
type lineDriver struct {
	s    *server
	h    *handleFile
	send simtime.Duration // the clock charge of one SendReply
	seq  int64
}

// read serves a read of n bytes at the start of blk.
func (d *lineDriver) read(blk, n int64) error {
	d.seq++
	return d.s.read(&mpi.RPCRequest{Op: mpi.OpRead, Client: 1, Handle: 1, Seq: d.seq, Off: blk * lineDS, Len: n})
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
// posted one by one at that start, the miss is answered at block 1's
// completion — not the batch's — a hit on block 3, still in flight, moves the
// server to exactly block 3's completion, and a hit after that moves it by
// the reply alone.
func TestLineFillCriticalBlockFirst(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 8 * lineDS, replies: 3}
	replies := rig.run(t, func(d *lineDriver) error {
		done, err := rig.twinDone(d.s.c.Now(), 1, 0, 2, 3)
		if err != nil {
			return err
		}
		if !(done[1] < done[0] && done[0] < done[2] && done[2] < done[3]) {
			return fmt.Errorf("twin completions %v are not distinct and ordered as posted", done)
		}
		if err := d.read(1, 32); err != nil {
			return err
		}
		if now, want := d.s.c.Now(), done[1].Add(d.send); now != want {
			return fmt.Errorf("miss answered at %d, want block 1's completion %d + send %d (the batch ends at %d)", now, done[1], d.send, done[3])
		}
		for blk, want := range done {
			if got := d.ready(blk); got != want {
				return fmt.Errorf("block %d arrives at %d, posted alone it completes at %d", blk, got, want)
			}
		}
		if err := d.read(3, lineDS); err != nil { // in flight
			return err
		}
		if now, want := d.s.c.Now(), done[3].Add(d.send); now != want {
			return fmt.Errorf("in-flight hit answered at %d, want block 3's completion %d + send %d", now, done[3], d.send)
		}
		before := d.s.c.Now()
		if err := d.read(0, 16); err != nil { // arrived long ago
			return err
		}
		if now, want := d.s.c.Now(), before.Add(d.send); now != want {
			return fmt.Errorf("hit after arrival answered at %d, want %d: it waited %d", now, want, now.Sub(want))
		}
		if st := d.s.stats; st.FSReads != 4 || st.CacheMisses != 1 || st.CacheHits != 2 || st.CacheEvictions != 0 {
			return fmt.Errorf("counters %+v, want 4 fs reads, 1 miss, 2 hits", st)
		}
		if got := d.resident(); !slices.Equal(got, []int64{0, 1, 2, 3}) {
			return fmt.Errorf("resident %v, want the line 0-3", got)
		}
		return nil
	})
	for i, want := range [][]byte{expectBlock(1, 32), expectBlock(3, lineDS), expectBlock(0, 16)} {
		if !replies[i].ok || !bytes.Equal(replies[i].data, want) {
			t.Errorf("reply %d: ok=%v, bytes diverge from the file", i, replies[i].ok)
		}
	}
}

// TestLineFillClippedAtEOF: a line stops at the file's end. With 5 blocks
// and a fraction, or exactly 6, a miss on block 4 reads blocks 4 and 5 and
// nothing at or past Size(); the partial block serves its real bytes.
func TestLineFillClippedAtEOF(t *testing.T) {
	for _, size := range []int64{5*lineDS + 100, 6 * lineDS} {
		rec := &trace.Recorder{}
		rig := lineRig{cacheBlks: 8, fileBytes: size, replies: 2, trace: rec}
		replies := rig.run(t, func(d *lineDriver) error {
			if err := d.read(4, lineDS); err != nil {
				return err
			}
			if got := d.resident(); !slices.Equal(got, []int64{4, 5}) {
				return fmt.Errorf("size %d: resident %v, want 4 and 5", size, got)
			}
			return d.read(5, 100)
		})
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
		rig := lineRig{cacheBlks: capacity, fileBytes: 8 * lineDS, replies: 5}
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
// dirty block 2; a read of block 2 bypasses the cache and still sees the
// pre-flush file; after the flush epoch block 2 is clean, misses, fills
// alone (its line is resident) and serves the new bytes.
func TestLineFillSkipsDirtyBlocks(t *testing.T) {
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS, replies: 5}
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
		if err := d.read(2, lineDS); err != nil { // dirty bypass
			return err
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
	})
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
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS, replies: 3}
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
	})
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
	rig := lineRig{cacheBlks: 8, fileBytes: 4 * lineDS, replies: 3, retry: &noRetry,
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
	})
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
