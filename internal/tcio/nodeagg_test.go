package tcio

import (
	"bytes"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

// aggRun executes the granule-interleaved write workload (writer of byte b
// is rank (b/granule) mod P, so each segment is written by the cores
// co-located ranks of one node) on a machine with the given node width, and
// returns the run report, the per-rank stats, and the file image.
func aggRun(t *testing.T, procs, cores int, aggOn bool) (mpi.Report, []Stats, []byte) {
	t.Helper()
	const segSize, numSeg = 64, 4
	fileBytes := int64(segSize * numSeg * procs)
	granule := int64(segSize / cores)
	m := cluster.Lonestar()
	m.CoresPerNode = cores
	fs := pfs.New(pfs.DefaultConfig())
	stats := make([]Stats, procs)
	cfg := Config{SegmentSize: segSize, NumSegments: numSeg, NodeAggregation: aggOn}
	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: m, FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "agg", WriteMode, cfg)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		for k := int64(c.Rank()); k*granule < fileBytes; k += int64(c.Size()) {
			off := k * granule
			for i := range buf {
				buf[i] = byte(off + int64(i)*7)
			}
			if err := f.WriteAt(off, buf); err != nil {
				return err
			}
		}
		err = f.Close()
		stats[c.Rank()] = f.Stats()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, stats, fs.Open("agg").Snapshot()
}

// TestNodeAggregationReducesInterNodePuts pins the tentpole effect on
// 4-core nodes: identical file bytes, the inter-node message count cut by
// the full factor of the node width, and consistent provenance counters.
func TestNodeAggregationReducesInterNodePuts(t *testing.T) {
	const procs, cores = 8, 4
	repOff, _, imgOff := aggRun(t, procs, cores, false)
	repOn, statsOn, imgOn := aggRun(t, procs, cores, true)

	if !bytes.Equal(imgOff, imgOn) {
		t.Fatal("aggregation changed the file bytes")
	}
	interOff := repOff.Net.Messages - repOff.Net.LocalMessages
	interOn := repOn.Net.Messages - repOn.Net.LocalMessages
	// Every segment's cores writers share a node, so their cores puts merge
	// into one: the inter-node count must drop by exactly the node width.
	if interOff != int64(cores)*interOn {
		t.Fatalf("inter-node messages %d -> %d, want exact /%d reduction", interOff, interOn, cores)
	}
	var combines, saved int64
	for _, s := range statsOn {
		combines += s.NodeCombines
		saved += s.InterNodePutsSaved
	}
	if combines == 0 {
		t.Fatal("no combined puts issued")
	}
	// Each inter-node combined put merged cores deposits, saving cores-1.
	if want := interOn * int64(cores-1); saved != want {
		t.Fatalf("InterNodePutsSaved = %d, want %d", saved, want)
	}
}

// TestNodeAggregationSingleCoreDegenerate pins the degenerate machine: with
// one rank per node the aggregation gate stays closed, so the message
// stream, the per-rank ledger (counters and lock/put/unlock wait sums), and
// the bytes are bit-identical to the plain path. The makespan is not
// compared: shared resources serve same-time arrivals in host order, so even
// two plain runs differ there (delegate's pass-through test excludes it for
// the same reason).
func TestNodeAggregationSingleCoreDegenerate(t *testing.T) {
	repOff, statsOff, imgOff := aggRun(t, 6, 1, false)
	repOn, statsOn, imgOn := aggRun(t, 6, 1, true)
	if !bytes.Equal(imgOff, imgOn) {
		t.Fatal("file bytes differ")
	}
	if repOff.Net != repOn.Net {
		t.Fatalf("net stats differ: %+v vs %+v", repOff.Net, repOn.Net)
	}
	for r := range statsOff {
		if statsOff[r] != statsOn[r] {
			t.Fatalf("rank %d stats differ:\noff %+v\non  %+v", r, statsOff[r], statsOn[r])
		}
	}
}

// TestNodeAggregationDisabledCounters checks the provenance counters stay
// zero whenever the gate is closed, whichever way it closes.
func TestNodeAggregationDisabledCounters(t *testing.T) {
	for _, tc := range []struct {
		procs, cores int
		aggOn        bool
	}{
		{8, 4, false}, // knob off
		{6, 1, true},  // single-core nodes
	} {
		_, stats, _ := aggRun(t, tc.procs, tc.cores, tc.aggOn)
		for r, s := range stats {
			if s.NodeCombines != 0 || s.InterNodePutsSaved != 0 {
				t.Fatalf("procs=%d cores=%d agg=%v rank %d: combines=%d saved=%d",
					tc.procs, tc.cores, tc.aggOn, r, s.NodeCombines, s.InterNodePutsSaved)
			}
		}
	}
}
