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
