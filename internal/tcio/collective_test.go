package tcio

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/tcio/tcio/internal/extent"
)

// refStaging is the grouping ownStaging replaced, kept as its oracle: walk
// every intent's segment pieces, key the ones rank me owns by segment in a
// map, sort the segments, and coalesce each segment's relative runs.
func refStaging(l extent.Layout, me int, intents []extent.Extent) []extent.Extent {
	needBySeg := make(map[int64][]extent.Extent)
	var segOrder []int64
	for _, run := range intents {
		_ = l.Pieces(run.Off, run.Len, func(seg, segOff, _, n int64) error {
			if owner, _ := l.Owner(seg); owner == me {
				if _, ok := needBySeg[seg]; !ok {
					segOrder = append(segOrder, seg)
				}
				needBySeg[seg] = append(needBySeg[seg], extent.Extent{Off: segOff, Len: n})
			}
			return nil
		})
	}
	sort.Slice(segOrder, func(i, j int) bool { return segOrder[i] < segOrder[j] })
	var out []extent.Extent
	for _, seg := range segOrder {
		for _, r := range extent.Coalesce(needBySeg[seg]) {
			out = append(out, extent.Extent{Off: l.SegStart(seg) + r.Off, Len: r.Len})
		}
	}
	return out
}

// TestOwnStagingMatchesPerSegmentMap pins the collective read's staging
// list — what each owner stages, segment by segment, and in which order —
// against the per-segment map it replaced, on seeded intent lists the way
// the allgather delivers them: concatenated across ranks, unordered,
// overlapping, crossing segments, some empty; one rank (every segment its
// own, so adjacent segments merge and must be re-cut) up to six.
func TestOwnStagingMatchesPerSegmentMap(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 3000; i++ {
		l := extent.Layout{P: 1 + rng.Intn(6), SegSize: 1 + rng.Int63n(48), NumSeg: 64}
		intents := make([]extent.Extent, rng.Intn(24))
		for j := range intents {
			intents[j] = extent.Extent{Off: rng.Int63n(400), Len: rng.Int63n(80)}
		}
		for me := range l.P {
			if got, want := ownStaging(l, me, intents), refStaging(l, me, intents); !slices.Equal(got, want) {
				t.Fatalf("case %d, %+v, rank %d of intents %v:\n got %v\nwant %v", i, l, me, intents, got, want)
			}
		}
	}
}
