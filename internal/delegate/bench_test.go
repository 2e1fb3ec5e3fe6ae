package delegate

import (
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// benchTier runs body on a 2-rank world (one client, one server) and
// reports its allocations — the B/op meter for the server staging paths
// the size-classed pools exist to flatten.
func benchTier(b testing.TB, body func(tr *Tier) error) {
	b.Helper()
	if b, ok := b.(*testing.B); ok {
		b.ReportAllocs()
	}
	m := cluster.Lonestar()
	m.CoresPerNode = 2
	cfg := Config{
		ServerRanks: 1,
		TCIO:        tcio.Config{SegmentSize: 1024, NumSegments: 8},
	}
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, FS: pfs.New(pfs.DefaultConfig())}, func(c *mpi.Comm) error {
		return Run(c, cfg, body)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDelegateCachedReadStaging measures per-read allocations on the
// server's read path: after the first line fill every read serves zero-copy
// from a resident block, so steady state should allocate nothing per
// iteration beyond the protocol envelopes.
func BenchmarkDelegateCachedReadStaging(b *testing.B) {
	benchTier(b, func(tr *Tier) error {
		f, err := tr.Open("bench", tcio.ReadMode)
		if err != nil {
			return err
		}
		dst := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAt(int64(i%4)*4096, dst); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// BenchmarkDelegateEpochStaging measures per-epoch allocations of the
// flush path: closeEpoch's per-block staging buffers are pooled, so the
// write→flush cycle should not grow with the block size.
func BenchmarkDelegateEpochStaging(b *testing.B) {
	benchTier(b, func(tr *Tier) error {
		f, err := tr.Open("bench", tcio.WriteMode)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if err := f.WriteAt(int64(i%4)*4096, buf); err != nil {
				return err
			}
			if err := f.Flush(); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// TestDelegateHotReadReusesStaging pins what the release points buy: a
// resident 4 KiB read — request, server-side serve, 4 KiB reply, copy-out —
// allocates one object process-wide (ReadAt's piece list) once warm,
// because the server releases the request and the client the reply.
// Without either release the round trip costs a fresh staging buffer.
func TestDelegateHotReadReusesStaging(t *testing.T) {
	var allocs float64
	benchTier(t, func(tr *Tier) error {
		f, err := tr.Open("pin", tcio.ReadMode)
		if err != nil {
			return err
		}
		dst := make([]byte, 4096)
		allocs = testing.AllocsPerRun(200, func() {
			if rerr := f.ReadAt(0, dst); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if allocs > 1 {
		t.Fatalf("hot delegated read allocates %.0f objects per round trip, want at most 1", allocs)
	}
}
