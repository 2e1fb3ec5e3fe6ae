package delegate

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// degenerateRun executes a strided write+read workload either through
// delegate.Run with ServerRanks == 0 or directly through tcio, returning
// the report, file image, per-rank tcio stats, and the trace summary.
func degenerateRun(t *testing.T, viaTier bool) (mpi.Report, []byte, []tcio.Stats, map[trace.Kind]trace.KindStats) {
	t.Helper()
	const procs = 6
	const segSize, numSeg, granule = int64(64), 4, int64(16)
	fileBytes := segSize * numSeg * procs
	m := cluster.Lonestar()
	m.CoresPerNode = 3
	fs := pfs.New(pfs.DefaultConfig())
	rec := &trace.Recorder{}
	tcfg := tcio.Config{
		SegmentSize: segSize, NumSegments: numSeg,
		Trace: rec,
	}
	stats := make([]tcio.Stats, procs)

	workload := func(c *mpi.Comm, open func(string, tcio.Mode) (*File, error)) error {
		f, err := open("degen", tcio.WriteMode)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		for k := int64(c.Rank()); k*granule < fileBytes; k += int64(c.Size()) {
			off := k * granule
			for i := range buf {
				buf[i] = expectByte(0, off+int64(i))
			}
			if err := f.WriteAt(off, buf); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		r, err := open("degen", tcio.ReadMode)
		if err != nil {
			return err
		}
		n := fileBytes / int64(c.Size())
		dst := make([]byte, n)
		if err := r.ReadAt(int64(c.Rank())*n, dst); err != nil {
			return err
		}
		if err := r.Fetch(); err != nil {
			return err
		}
		for i := range dst {
			if want := expectByte(0, int64(c.Rank())*n+int64(i)); dst[i] != want {
				t.Errorf("rank %d read byte %d: got %d want %d", c.Rank(), i, dst[i], want)
				break
			}
		}
		stats[c.Rank()] = f.TCIO().Stats()
		return r.Close()
	}

	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: m, FS: fs}, func(c *mpi.Comm) error {
		if viaTier {
			return Run(c, Config{ServerRanks: 0, TCIO: tcfg}, func(tr *Tier) error {
				return workload(c, tr.Open)
			})
		}
		// Direct tcio, wrapped in the same File shape so workload and the
		// stats capture are byte-for-byte the same code path shape.
		open := func(name string, mode tcio.Mode) (*File, error) {
			df, err := tcio.Open(c, name, mode, tcfg)
			if err != nil {
				return nil, err
			}
			return &File{direct: df, name: name, mode: mode, handle: -1}, nil
		}
		return workload(c, open)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, fs.Open("degen").Snapshot(), stats, rec.Summary()
}

// dropDurations zeroes a ledger's virtual-duration aggregates, leaving
// the scheduling-independent counters.
func dropDurations(s tcio.Stats) tcio.Stats {
	s.LockWait, s.PutIssue, s.UnlockWait = 0, 0, 0
	return s
}

// dropFSConflicts zeroes the file system's lock-conflict counter —
// whether two ranks' lock windows overlap is a queueing observation,
// not part of the request identity.
func dropFSConflicts(s pfs.Stats) pfs.Stats {
	s.LockConflicts = 0
	return s
}

// dropTraceDurations does the same for a trace summary.
func dropTraceDurations(sum map[trace.Kind]trace.KindStats) map[trace.Kind]trace.KindStats {
	out := make(map[trace.Kind]trace.KindStats, len(sum))
	for k, s := range sum {
		s.Dur = 0
		out[k] = s
	}
	return out
}

// TestDelegateDegeneratePassThrough pins the off switch: ServerRanks == 0
// must be bit-identical to not using the package. Bit-identical means the
// scheduling-independent request identity — file bytes, network totals,
// file system activity, per-rank tcio ledgers, trace profile — not
// virtual completion times: even two *direct* runs order same-time queue
// arrivals differently, so makespans are scheduling facts (the
// conformance summary excludes them for the same reason).
func TestDelegateDegeneratePassThrough(t *testing.T) {
	t.Run("synchronous", func(t *testing.T) {
		repDirect, imgDirect, statsDirect, sumDirect := degenerateRun(t, false)
		repTier, imgTier, statsTier, sumTier := degenerateRun(t, true)

		if !bytes.Equal(imgDirect, imgTier) {
			t.Fatal("pass-through changed the file bytes")
		}
		if repDirect.Net != repTier.Net {
			t.Fatalf("pass-through changed network totals:\ndirect %+v\ntier   %+v", repDirect.Net, repTier.Net)
		}
		if dropFSConflicts(repDirect.FS) != dropFSConflicts(repTier.FS) {
			t.Fatalf("pass-through changed file system activity:\ndirect %+v\ntier   %+v", repDirect.FS, repTier.FS)
		}
		for r := range statsDirect {
			// The duration aggregates (LockWait etc.) are queue-wait
			// sums, scheduling facts like the makespan; the counters
			// are the request identity.
			d, ti := dropDurations(statsDirect[r]), dropDurations(statsTier[r])
			if d != ti {
				t.Fatalf("rank %d ledger differs:\ndirect %+v\ntier   %+v", r, d, ti)
			}
		}
		if !reflect.DeepEqual(dropTraceDurations(sumDirect), dropTraceDurations(sumTier)) {
			t.Fatalf("trace profile differs:\ndirect %+v\ntier   %+v", sumDirect, sumTier)
		}
	})
}
