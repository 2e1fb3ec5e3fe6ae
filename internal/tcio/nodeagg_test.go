package tcio

import (
	"bytes"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
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

// combineRun is the smallest combine: two 2-core nodes, and only rank 1
// writes — through write — while every rank opens, flushes and closes. On
// node 0 segment 2's leader is rank 0 and its owner rank 2 is on node 1, so
// rank 1's runs there travel as one deposit and one combined put. It
// returns the leader's stats and clock after Close, the owner's window slot
// of segment 2 after Flush, and the run report.
func combineRun(t *testing.T, write func(f *File) error) (lead Stats, clock simtime.Time, window []byte, rep mpi.Report) {
	t.Helper()
	m := cluster.Lonestar()
	m.CoresPerNode = 2
	cfg := Config{SegmentSize: 64, NumSegments: 4, NodeAggregation: true}
	rep, err := mpi.Run(mpi.Config{Procs: 4, Machine: m, FS: pfs.New(pfs.DefaultConfig())}, func(c *mpi.Comm) error {
		f, err := Open(c, "combine", WriteMode, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := write(f); err != nil {
				return err
			}
		}
		if err := f.Flush(); err != nil {
			return err
		}
		if c.Rank() == 2 {
			window = bytes.Clone(f.win.Local()[:64])
		}
		if err := f.Close(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			lead, clock = f.Stats(), c.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lead, clock, window, rep
}

// TestCombineTwin pins the node leader's combined put to the nanosecond:
// one two-run deposit, shipped by the leader as one indexed put. The
// numbers were recorded on the parent of PR 25, whose leader still issued
// the runtime's grouped put, and repeat at every -count and -cpu.
func TestCombineTwin(t *testing.T) {
	lead, clock, window, rep := combineRun(t, func(f *File) error {
		if err := f.WriteAt(2*64+4, []byte("abcdefgh")); err != nil {
			return err
		}
		return f.WriteAt(2*64+20, []byte("ijklmnop"))
	})
	if clock != 1380459 || lead.LockWait != 4600 || lead.PutIssue != 520 {
		t.Errorf("leader clock %d, LockWait %d, PutIssue %d; want 1380459, 4600, 520",
			clock, lead.LockWait, lead.PutIssue)
	}
	if lead.NodeCombines != 1 || lead.InterNodePutsSaved != 0 {
		t.Errorf("leader combines %d, puts saved %d; want 1, 0", lead.NodeCombines, lead.InterNodePutsSaved)
	}
	if rep.Net.Messages != 2 || rep.Net.LocalMessages != 1 || rep.Net.Bytes != 32 {
		t.Errorf("net %d messages (%d local), %d bytes; want 2 (1), 32",
			rep.Net.Messages, rep.Net.LocalMessages, rep.Net.Bytes)
	}
	want := make([]byte, 64)
	copy(want[4:], "abcdefgh")
	copy(want[20:], "ijklmnop")
	if !bytes.Equal(window, want) {
		t.Errorf("owner window %q, want %q", window, want)
	}
}

// TestCombineMergeOrder: two overlapping deposits from one origin in one
// epoch merge in program order, so the later one wins. Writing segment 0
// between them flushes the first out of the origin's level-1 buffer.
func TestCombineMergeOrder(t *testing.T) {
	_, _, window, _ := combineRun(t, func(f *File) error {
		if err := f.WriteAt(2*64+8, bytes.Repeat([]byte("A"), 16)); err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte("x")); err != nil {
			return err
		}
		return f.WriteAt(2*64+16, bytes.Repeat([]byte("B"), 16))
	})
	want := make([]byte, 64)
	copy(want[8:], bytes.Repeat([]byte("A"), 8))
	copy(want[16:], bytes.Repeat([]byte("B"), 16))
	if !bytes.Equal(window, want) {
		t.Fatalf("owner window %q, want %q", window, want)
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
