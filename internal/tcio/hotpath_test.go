package tcio

// Tests for the one-sided ship/fetch hot path (results/design-history.md,
// "One-sided ship/fetch hot path"): the counting groupPending against the
// map-based grouping it replaced, the fetch's lock hygiene and batch rule,
// and the zero-allocation pins.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
)

// seedReadFile writes a deterministic pattern so read sessions have bytes
// to fetch; every rank must call it (it ends on a barrier).
func seedReadFile(c *mpi.Comm, name string, size int) error {
	if c.Rank() == 0 {
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i*7 + i>>8)
		}
		if _, err := c.FS().Open(name).WriteAt(0, 0, content, 0); err != nil {
			return err
		}
	}
	return c.Barrier()
}

func wantReadByte(i int64) byte { return byte(i*7 + i>>8) }

// refGroupPending is the grouping groupPending replaced, kept as the
// oracle: a map of per-segment slices plus the first-appearance order.
func refGroupPending(pending []readReq, segSize int64) (map[int64][]readReq, []int64) {
	bySeg := make(map[int64][]readReq)
	var order []int64
	for _, r := range pending {
		seg := r.off / segSize
		if _, ok := bySeg[seg]; !ok {
			order = append(order, seg)
		}
		bySeg[seg] = append(bySeg[seg], r)
	}
	return bySeg, order
}

// TestGroupPendingMatchesReference runs seeded queues through one handle's
// groupPending — so every call after the first reuses dirty scratch — and
// compares groups, group order and in-group request order with the oracle.
// Queues are built the way ReadAt builds them: requests split at segment
// boundaries, segments re-appearing after others intervened.
func TestGroupPendingMatchesReference(t *testing.T) {
	const segSize = 64
	rng := rand.New(rand.NewSource(15))
	f := &File{session: session{
		layout: extent.Layout{P: 4, SegSize: segSize, NumSeg: 1 << 20},
	}}
	backing := make([]byte, 1<<16)
	for trial := 0; trial < 2500; trial++ {
		var pool int64 // segments the queue draws from
		var reads int
		switch trial % 5 {
		case 0:
			pool, reads = 1, rng.Intn(40) // one segment only; sometimes empty
		case 1:
			pool, reads = 3, 1+rng.Intn(60) // heavy non-adjacent re-appearance
		default:
			pool, reads = 1+int64(rng.Intn(100)), rng.Intn(120)
		}
		base := int64(rng.Intn(1000))
		at := 0
		for i := 0; i < reads; i++ {
			off := (base+rng.Int63n(pool))*segSize + rng.Int63n(segSize)
			n := 1 + rng.Int63n(3*segSize/2)
			for n > 0 { // ReadAt's split
				piece := min(n, segSize-off%segSize)
				f.pending = append(f.pending, readReq{off: off, dst: backing[at : at+int(piece)]})
				at += int(piece)
				off += piece
				n -= piece
			}
		}
		f.pendingSeg, f.pendingSwitches = 7, 3
		bySeg, order := refGroupPending(f.pending, segSize)

		groups := f.groupPending()
		if len(f.pending) != 0 || f.pendingSeg != -1 || f.pendingSwitches != 0 {
			t.Fatalf("trial %d: queue not reset: %d pending, seg %d, distinct %d",
				trial, len(f.pending), f.pendingSeg, f.pendingSwitches)
		}
		if len(groups) != len(order) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(groups), len(order))
		}
		for i, g := range groups {
			want := bySeg[order[i]]
			if g.seg != order[i] || len(g.reqs) != len(want) {
				t.Fatalf("trial %d group %d: segment %d with %d reads, want segment %d with %d",
					trial, i, g.seg, len(g.reqs), order[i], len(want))
			}
			for j, r := range g.reqs {
				if r.off != want[j].off || len(r.dst) != len(want[j].dst) || &r.dst[0] != &want[j].dst[0] {
					t.Fatalf("trial %d group %d read %d: off %d len %d, want off %d len %d (or another buffer)",
						trial, i, j, r.off, len(r.dst), want[j].off, len(want[j].dst))
				}
			}
		}
	}
}

// TestFetchFailureReleasesLocks: a fetch that fails while it is still
// locking owners must release the ones it already holds. Rank 0 queues
// reads on segments owned by ranks 1, 2 and 3 and holds rank 2's lock
// itself, so the fetch locks rank 1 and then fails on rank 2.
func TestFetchFailureReleasesLocks(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "leak", 1024); err != nil {
			return err
		}
		f, err := Open(c, "leak", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			queue := func() ([][]byte, error) {
				dsts := make([][]byte, procs)
				for seg := int64(1); seg < procs; seg++ {
					dsts[seg] = make([]byte, 4)
					if err := f.ReadAt(seg*64, dsts[seg]); err != nil {
						return nil, err
					}
				}
				return dsts, nil
			}
			if _, err := queue(); err != nil {
				return err
			}
			if err := f.win.Lock(2, false); err != nil {
				return err
			}
			if err := f.Fetch(); err == nil {
				return errors.New("Fetch succeeded with an owner's lock already held")
			}
			if err := f.win.Unlock(2); err != nil {
				return err
			}
			for owner := 0; owner < procs; owner++ {
				if f.win.Held(owner) {
					return fmt.Errorf("failed Fetch left rank %d's window lock held", owner)
				}
			}
			// The handle stays usable: the same reads, queued again, land.
			dsts, err := queue()
			if err != nil {
				return err
			}
			if err := f.Fetch(); err != nil {
				return err
			}
			for seg := int64(1); seg < procs; seg++ {
				if dsts[seg][0] != wantReadByte(seg*64) {
					return fmt.Errorf("segment %d read %v after the failed fetch", seg, dsts[seg])
				}
			}
		}
		return f.Close()
	})
}

// TestFetchBatchCountsSegmentSwitches pins the implicit-fetch rule as it
// is: the queue counts segment switches, not distinct segments, so reads
// alternating between two segments trip fetchBatch on every fetchBatch-th
// switch although only two segments are ever queued. Fetch boundaries
// decide virtual time, so the rule must not drift.
func TestFetchBatchCountsSegmentSwitches(t *testing.T) {
	const reads = 4 * fetchBatch
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "switches", 2048); err != nil {
			return err
		}
		f, err := Open(c, "switches", ReadMode, Config{SegmentSize: 1024, NumSegments: 16})
		if err != nil {
			return err
		}
		// Read i lands in segment i%2. The queue switches segment on every
		// read, so reads fetchBatch+1, 2*fetchBatch+1 and 3*fetchBatch+1
		// each overflow the batch and fetch the two segments queued: 3
		// implicit fetches, 6 gets, before Close fetches the last batch
		// with 2 more.
		at := func(i int) int64 { return int64(i%2)*1024 + int64(2*(i/2)) }
		dsts := make([][]byte, reads)
		for i := range dsts {
			dsts[i] = make([]byte, 2)
			if err := f.ReadAt(at(i), dsts[i]); err != nil {
				return err
			}
			if want := int64(i / fetchBatch * 2); f.Stats().Gets != want {
				return fmt.Errorf("after read %d: %d gets, want %d", i+1, f.Stats().Gets, want)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if got := f.Stats().Gets; got != 8 {
			return fmt.Errorf("%d gets after Close, want 8", got)
		}
		for i, dst := range dsts {
			if off := at(i); dst[0] != wantReadByte(off) || dst[1] != wantReadByte(off+1) {
				return fmt.Errorf("read %d = %v", i+1, dst)
			}
		}
		return nil
	})
}

// TestShipDoesNotAllocate pins the ship's host cost: an untraced WriteAt
// that flushes the level-1 buffer and ships it to an already-dirty segment
// allocates nothing — with one owner more than pipelineDepth, so every
// ship also evicts an epoch and opens another on a recycled lock record.
// The other ranks wait in Close meanwhile.
func TestShipDoesNotAllocate(t *testing.T) {
	const owners = pipelineDepth + 1
	run(t, owners+1, func(c *mpi.Comm) error {
		f, err := Open(c, "ship-noalloc", WriteMode, Config{SegmentSize: 64, NumSegments: 16})
		if err != nil {
			return err
		}
		piece := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if c.Rank() == 0 {
			i := int64(0)
			write := func() { // segments 1, 2, ..., owners, 1, ...: each call ships the one before
				if err := f.WriteAt((1+i%owners)*64+8, piece); err != nil {
					panic(err)
				}
				i++
			}
			for range 64 {
				write()
			}
			ships, evictions := f.Stats().Level1Flush, f.Stats().EpochEvictions
			if a := testing.AllocsPerRun(1000, write); a != 0 {
				return fmt.Errorf("%v allocs per shipping WriteAt, want 0", a)
			}
			if got := f.Stats().Level1Flush - ships; got != 1001 {
				return fmt.Errorf("%d ships in 1001 writes", got)
			}
			if got := f.Stats().EpochEvictions - evictions; got != 1001 {
				return fmt.Errorf("%d epoch evictions in 1001 ships, want one each", got)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := make([]byte, owners*64+16)
			for s := 1; s <= owners; s++ {
				copy(want[s*64+8:], piece)
			}
			if got := c.FS().Open("ship-noalloc").Snapshot(); !bytes.Equal(got, want) {
				return fmt.Errorf("file image differs:\n got %v\nwant %v", got, want)
			}
		}
		return nil
	})
}

// TestFetchDoesNotAllocate pins the fetch's host cost: queueing a full
// fetchBatch — two reads in each of 64 populated segments — and
// fetching it allocates nothing once the handle's scratch is warm.
func TestFetchDoesNotAllocate(t *testing.T) {
	const procs, segs = 4, 64
	run(t, procs, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "fetch-noalloc", segs*64); err != nil {
			return err
		}
		f, err := Open(c, "fetch-noalloc", ReadMode, smallCfg())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			dst := make([]byte, segs*8)
			batch := func() {
				for seg := 0; seg < segs; seg++ {
					for half := 0; half < 2; half++ {
						at := seg*8 + half*4
						if err := f.ReadAt(int64(seg*64+half*32), dst[at:at+4]); err != nil {
							panic(err)
						}
					}
				}
				if err := f.Fetch(); err != nil {
					panic(err)
				}
			}
			batch()
			gets := f.Stats().Gets
			if a := testing.AllocsPerRun(100, batch); a != 0 {
				return fmt.Errorf("%v allocs per fetched batch, want 0", a)
			}
			if got := f.Stats().Gets - gets; got != 101*segs {
				return fmt.Errorf("%d gets in 101 batches of %d segments", got, segs)
			}
			for seg := 0; seg < segs; seg++ {
				if dst[seg*8] != wantReadByte(int64(seg*64)) || dst[seg*8+4] != wantReadByte(int64(seg*64+32)) {
					return fmt.Errorf("segment %d read %v", seg, dst[seg*8:seg*8+8])
				}
			}
		}
		return f.Close()
	})
}

// TestStageWriteTailMergeMatchesAppend: stageWrite extends the level-1 block
// list's last block when a piece abuts it instead of appending. Over seeded
// piece sequences — abutting runs, overlaps, rewrites of earlier bytes, out
// of order — Coalesce of the tail-merged list equals Coalesce of the
// append-only list it replaced, and a purely sequential epoch keeps one
// block.
func TestStageWriteTailMergeMatchesAppend(t *testing.T) {
	const segSize = 4096
	rng := rand.New(rand.NewSource(43))
	f := &File{session: session{l1Seg: 5, l1: newLevel1(segSize)}}
	piece := make([]byte, segSize)
	for trial := 0; trial < 3000; trial++ {
		var ref []extent.Extent // the append-only list
		f.l1Blocks = f.l1Blocks[:0]
		sequential := trial%7 == 0
		at := int64(rng.Intn(segSize / 2))
		for i, n := 0, 1+rng.Intn(40); i < n && at < segSize; i++ {
			size := 1 + rng.Int63n(min(200, segSize-at))
			off := at
			switch kind := rng.Intn(5); {
			case sequential || kind <= 1: // abuts the last piece
			case kind == 2 && len(ref) > 0: // overlaps the last piece
				last := ref[len(ref)-1]
				off = last.Off + rng.Int63n(last.Len)
			case kind == 3 && len(ref) > 0: // rewrites an earlier piece
				off = ref[rng.Intn(len(ref))].Off
			default: // anywhere
				off = rng.Int63n(segSize)
			}
			size = min(size, segSize-off)
			if err := f.stageWrite(5, off, piece[:size]); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, extent.Extent{Off: off, Len: size})
			at = off + size
		}
		got := extent.Coalesce(append([]extent.Extent(nil), f.l1Blocks...))
		want := extent.Coalesce(ref)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: tail-merged list coalesces to %v, append-only to %v (pieces %v)", trial, got, want, ref)
		}
		if sequential && len(f.l1Blocks) != 1 {
			t.Fatalf("trial %d: a sequential epoch of %d pieces keeps %d blocks, want 1", trial, len(ref), len(f.l1Blocks))
		}
	}
}

// TestGroupRunsMatchesCountingSort: a queue that visits each segment in one
// stretch is grouped by groupRuns, as slices of the queue itself; any other
// takes groupInterleaved, the counting sort. Over seeded queues of both
// kinds, groupPending returns the counting sort's groups, in its order,
// each group's reads in queue order, and an interleaved queue's groups are
// the counting sort's scratch, not the queue.
func TestGroupRunsMatchesCountingSort(t *testing.T) {
	const segSize = 64
	rng := rand.New(rand.NewSource(44))
	layout := extent.Layout{P: 4, SegSize: segSize, NumSeg: 1 << 20}
	f := &File{session: session{layout: layout}}
	ref := &File{session: session{layout: layout}}
	ref.fetch = new(fetchScratch)
	backing := make([]byte, 1<<16)
	var grouped, interleaved int
	for trial := 0; trial < 2500; trial++ {
		pool := 1 + int64(rng.Intn(20))
		base := int64(rng.Intn(1000))
		at := 0
		for i, reads := 0, rng.Intn(100); i < reads; i++ {
			off := (base+rng.Int63n(pool))*segSize + rng.Int63n(segSize)
			n := 1 + rng.Int63n(3*segSize/2)
			for n > 0 { // ReadAt's split
				piece := min(n, segSize-off%segSize)
				f.pending = append(f.pending, readReq{off: off, dst: backing[at : at+int(piece)]})
				at += int(piece)
				off += piece
				n -= piece
			}
		}
		if trial%2 == 0 { // stable-sort by first appearance: a grouped queue
			first := map[int64]int{}
			for i, r := range f.pending {
				if _, ok := first[r.off/segSize]; !ok {
					first[r.off/segSize] = i
				}
			}
			slices.SortStableFunc(f.pending, func(a, b readReq) int {
				return first[a.off/segSize] - first[b.off/segSize]
			})
		}
		ref.pending = append(ref.pending[:0], f.pending...)
		want := ref.groupInterleaved(ref.fetch.groups[:0])
		ref.fetch.groups = want
		// The queue is grouped when it switches segment once per group.
		stretches := 0
		for i, r := range f.pending {
			if i == 0 || r.off/segSize != f.pending[i-1].off/segSize {
				stretches++
			}
		}
		isGrouped := stretches == len(want)
		f.pendingSwitches = stretches
		var queue *readReq
		if len(f.pending) > 0 {
			queue = &f.pending[0]
		}
		got := f.groupPending()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.seg != w.seg || len(g.reqs) != len(w.reqs) {
				t.Fatalf("trial %d group %d: segment %d with %d reads, want segment %d with %d",
					trial, i, g.seg, len(g.reqs), w.seg, len(w.reqs))
			}
			for j, r := range g.reqs {
				if r.off != w.reqs[j].off || len(r.dst) != len(w.reqs[j].dst) || &r.dst[0] != &w.reqs[j].dst[0] {
					t.Fatalf("trial %d group %d read %d differs from the counting sort's", trial, i, j)
				}
			}
		}
		if len(got) == 0 {
			continue
		}
		switch zeroCopy := &got[0].reqs[0] == queue; {
		case isGrouped && !zeroCopy:
			t.Fatalf("trial %d: a grouped queue's groups are not slices of the queue", trial)
		case !isGrouped && zeroCopy:
			t.Fatalf("trial %d: an interleaved queue did not take the counting sort", trial)
		case isGrouped:
			grouped++
		default:
			interleaved++
		}
		if trial%2 == 0 && !isGrouped {
			t.Fatalf("trial %d: a queue sorted by first appearance was not taken as grouped", trial)
		}
	}
	if grouped < 1000 || interleaved < 500 {
		t.Fatalf("%d grouped and %d interleaved queues: the generator misses a path", grouped, interleaved)
	}
}
