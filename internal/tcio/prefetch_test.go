package tcio

// The prefetch staging's occupancy invariant — what stands where a cache-cap
// knob and its eviction loop stood: the map of staged segments never holds
// more than PrefetchSegments entries, and holds none once a batch ends. With
// that bound there is nothing to evict.

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

// fetchStepwise is fetchIndependent with an observer after every step of its
// populate phase — the only place segments are staged, taken and dropped.
func fetchStepwise(f *File, after func()) error {
	if len(f.pending) == 0 {
		return f.fetchIndependent()
	}
	groups := f.groupPending()
	for i := range groups {
		if err := f.ensurePopulated(groups, i); err != nil {
			return err
		}
		after()
	}
	return f.fetchGets(groups)
}

const (
	occProcs   = 4
	occSegSize = int64(64)
	occNumSeg  = 8
	occSegs    = occProcs * occNumSeg // global segments in the file
	occPiece   = int64(16)            // bytes read from each visited segment
)

// occResult is what one rank observed over its batches.
type occResult struct {
	stats   Stats
	maxHeld int // largest len(f.prefetched) seen after any step
}

// occRun seeds a file, opens it in demand-populate read mode on occProcs
// ranks and fetches batches(rank) — each a list of global segments, in read
// order — one Fetch per batch. With stepwise set the fetch loop is driven
// step by step and the occupancy bound asserted after each; otherwise the
// plain Fetch runs, so the two can be compared.
func occRun(t *testing.T, cfg Config, batches func(rank int) [][]int64, stepwise bool) [occProcs]occResult {
	t.Helper()
	fs := pfs.New(pfs.DefaultConfig())
	seed := make([]byte, occSegs*occSegSize)
	for off := range seed {
		seed[off] = mfByte(3, int64(off))
	}
	if _, err := fs.Open("occ").WriteAt(0, 0, seed, 0); err != nil {
		t.Fatal(err)
	}
	cfg.SegmentSize, cfg.NumSegments, cfg.DemandPopulate = occSegSize, occNumSeg, true
	var out [occProcs]occResult
	_, err := mpi.Run(mpi.Config{Procs: occProcs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "occ", ReadMode, cfg)
		if err != nil {
			return err
		}
		res := &out[c.Rank()]
		limit := f.cfg.PrefetchSegments // normalized: a budget may have clamped it
		var stepErr error
		after := func() {
			held := len(f.prefetched)
			if held > res.maxHeld {
				res.maxHeld = held
			}
			if held > limit && stepErr == nil {
				stepErr = fmt.Errorf("%d segments staged, lookahead is %d", held, limit)
			}
		}
		for bi, segs := range batches(c.Rank()) {
			dsts := make([][]byte, len(segs))
			for i, seg := range segs {
				dsts[i] = make([]byte, occPiece)
				if err := f.ReadAt(seg*occSegSize+8, dsts[i]); err != nil {
					return err
				}
			}
			if stepwise {
				err = fetchStepwise(f, after)
			} else {
				err = f.Fetch()
			}
			if err != nil {
				return err
			}
			if stepErr != nil {
				return stepErr
			}
			if len(f.prefetched) != 0 {
				return fmt.Errorf("%d segments still staged after batch %d", len(f.prefetched), bi)
			}
			for i, seg := range segs {
				for b, got := range dsts[i] {
					if want := mfByte(3, seg*occSegSize+8+int64(b)); got != want {
						return fmt.Errorf("segment %d byte %d = %d, want %d", seg, b, got, want)
					}
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		res.stats = f.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ownRegion maps a pattern over a rank's private block of occNumSeg
// consecutive global segments, split into two batches.
func ownRegion(first, second []int64) func(int) [][]int64 {
	return func(rank int) [][]int64 {
		base := int64(rank * occNumSeg)
		shift := func(segs []int64) []int64 {
			out := make([]int64, len(segs))
			for i, s := range segs {
				out[i] = base + s
			}
			return out
		}
		return [][]int64{shift(first), shift(second)}
	}
}

// TestPrefetchOccupancyBound: disjoint per-rank regions, so every counter is
// a function of the pattern alone.
func TestPrefetchOccupancyBound(t *testing.T) {
	patterns := []struct {
		name          string
		first, second []int64
		// longest run of forward-consecutive successors after any step: what
		// the lookahead can stage at once, uncapped.
		run int
	}{
		{"forward", []int64{0, 1, 2, 3, 4}, []int64{5, 6, 7}, 4},
		{"strided", []int64{0, 1, 2, 4, 5}, []int64{7, 3, 6}, 2},
		{"backward", []int64{7, 6, 5, 4}, []int64{3, 2, 1, 0}, 0},
	}
	for _, pat := range patterns {
		for _, look := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/lookahead-%d", pat.name, look), func(t *testing.T) {
				cfg := Config{PrefetchSegments: look}
				stepped := occRun(t, cfg, ownRegion(pat.first, pat.second), true)
				plain := occRun(t, cfg, ownRegion(pat.first, pat.second), false)
				for rank, res := range stepped {
					if want := min(look, pat.run); res.maxHeld != want {
						t.Errorf("rank %d: peak occupancy %d, want %d", rank, res.maxHeld, want)
					}
					st := res.stats
					if st.PrefetchIssued != st.PrefetchHits+st.PrefetchWasted {
						t.Errorf("rank %d: issued %d != hits %d + wasted %d", rank,
							st.PrefetchIssued, st.PrefetchHits, st.PrefetchWasted)
					}
					if st.PrefetchWasted != 0 {
						t.Errorf("rank %d: %d wasted prefetches on a private region", rank, st.PrefetchWasted)
					}
					// The stepwise driver is the loop Fetch runs: same counters.
					if st != plain[rank].stats {
						t.Errorf("rank %d: stepwise stats %+v differ from Fetch's %+v", rank, st, plain[rank].stats)
					}
				}
			})
		}
	}
}

// TestPrefetchOccupancyContended has every rank walk the whole file, so
// ranks race to populate the same segments and staged reads are wasted; which
// ones is a scheduling fact, the bound and the books are not.
func TestPrefetchOccupancyContended(t *testing.T) {
	whole := func(int) [][]int64 {
		var a, b []int64
		for s := int64(0); s < occSegs/2; s++ {
			a, b = append(a, s), append(b, occSegs/2+s)
		}
		return [][]int64{a, b}
	}
	for _, look := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lookahead-%d", look), func(t *testing.T) {
			var issued, hits, wasted int64
			for _, res := range occRun(t, Config{PrefetchSegments: look}, whole, true) {
				issued += res.stats.PrefetchIssued
				hits += res.stats.PrefetchHits
				wasted += res.stats.PrefetchWasted
			}
			if issued == 0 || issued != hits+wasted {
				t.Fatalf("issued %d, hits %d + wasted %d", issued, hits, wasted)
			}
		})
	}
}

// TestPrefetchOccupancyUnderBudget: a segment budget of two segments clamps
// a lookahead of eight to two, and the staging obeys the clamped value.
func TestPrefetchOccupancyUnderBudget(t *testing.T) {
	cfg := Config{PrefetchSegments: 8, SegmentMemoryBudget: 2 * occSegSize}
	forward := ownRegion([]int64{0, 1, 2, 3, 4}, []int64{5, 6, 7})
	for rank, res := range occRun(t, cfg, forward, true) {
		if res.maxHeld != 2 {
			t.Errorf("rank %d: peak occupancy %d under a two-segment budget, want 2", rank, res.maxHeld)
		}
	}
}
