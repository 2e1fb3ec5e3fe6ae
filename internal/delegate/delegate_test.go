package delegate

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// expectByte is the deterministic content of offset off in the test files
// (per-file variation via the file index).
func expectByte(file int, off int64) byte { return byte(off*7 + int64(file)*131 + 3) }

// delegateRun executes a granule-interleaved write-then-read workload
// through the tier and returns the run report, the file image, the
// per-client stats, and the server collector.
func delegateRun(t *testing.T, procs, serverRanks int, granule, fileBytes int64) (mpi.Report, []byte, []Stats, *Collector) {
	t.Helper()
	m := cluster.Lonestar()
	m.CoresPerNode = 4
	fs := pfs.New(pfs.DefaultConfig())
	col := &Collector{}
	cfg := Config{
		ServerRanks: serverRanks,
		TCIO:        tcio.Config{SegmentSize: 64, NumSegments: 8},
		Collect:     col,
	}
	stats := make([]Stats, procs)
	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: m, FS: fs}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			f, err := tr.Open("del", tcio.WriteMode)
			if err != nil {
				return err
			}
			buf := make([]byte, granule)
			for k := int64(tr.ClientIndex()); k*granule < fileBytes; k += int64(tr.NumClients()) {
				off := k * granule
				for i := range buf {
					buf[i] = expectByte(0, off+int64(i))
				}
				if err := f.WriteAt(off, buf); err != nil {
					return err
				}
			}
			if err := f.Flush(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			// Read phase: every client reads a shifted slice and verifies.
			r, err := tr.Open("del", tcio.ReadMode)
			if err != nil {
				return err
			}
			n := fileBytes / int64(tr.NumClients())
			off := (int64(tr.ClientIndex()+1) * n) % fileBytes
			if off+n > fileBytes {
				n = fileBytes - off
			}
			dst := make([]byte, n)
			if err := r.ReadAt(off, dst); err != nil {
				return err
			}
			if err := r.Fetch(); err != nil {
				return err
			}
			for i := range dst {
				if dst[i] != expectByte(0, off+int64(i)) {
					return fmt.Errorf("client %d: byte %d = %d, want %d",
						tr.ClientIndex(), off+int64(i), dst[i], expectByte(0, off+int64(i)))
				}
			}
			stats[tr.Comm().Rank()] = f.Stats()
			return r.Close()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	img := fs.Open("del").Snapshot()
	if int64(len(img)) > fileBytes {
		img = img[:fileBytes]
	}
	return rep, img, stats, col
}

func TestDelegateWriteReadRoundTrip(t *testing.T) {
	const procs, servers = 8, 2
	const granule, fileBytes = int64(32), int64(32 * 96)
	rep, img, stats, col := delegateRun(t, procs, servers, granule, fileBytes)

	for off := int64(0); off < fileBytes; off++ {
		if img[off] != expectByte(0, off) {
			t.Fatalf("file byte %d = %d, want %d", off, img[off], expectByte(0, off))
		}
	}
	ss := col.Servers()
	if len(ss) != servers {
		t.Fatalf("collected %d server stats, want %d", len(ss), servers)
	}
	var staged, runs, fsWrites int64
	for _, s := range ss {
		if s.Epochs == 0 || s.StagedWrites == 0 {
			t.Fatalf("server %d served no epochs/writes: %+v", s.Rank, s)
		}
		staged += s.StagedWrites
		runs += s.BatchedRuns
		fsWrites += s.FSWrites
	}
	// Aggregation: interleaved granules coalesce inside domain blocks, so
	// the drained runs must be far fewer than the staged records.
	if runs >= staged/2 {
		t.Fatalf("no aggregation: %d runs from %d staged writes", runs, staged)
	}
	if runs != fsWrites {
		t.Fatalf("batched runs %d != fs write requests %d (no chaos)", runs, fsWrites)
	}
	if rep.FS.Writes != fsWrites {
		t.Fatalf("file system saw %d writes, servers issued %d — a non-server rank wrote",
			rep.FS.Writes, fsWrites)
	}
	// Every client wrote and stalled zero or more times; server ranks have
	// zero client stats.
	serverSet := map[int]bool{}
	for _, s := range ss {
		serverSet[s.Rank] = true
	}
	for r, st := range stats {
		if serverSet[r] {
			if st.Writes != 0 {
				t.Fatalf("server rank %d has client stats %+v", r, st)
			}
			continue
		}
		if st.Writes == 0 || st.WriteReqs == 0 || st.Flushes != 2 {
			t.Fatalf("client rank %d stats %+v", r, st)
		}
	}
}

// TestDelegateLastWriteWins pins deterministic conflict resolution: every
// client writes the same extent, and the survivor must be the one the
// epoch sort puts last — the highest client rank — no matter how arrivals
// interleave.
func TestDelegateLastWriteWins(t *testing.T) {
	const procs = 6
	m := cluster.Lonestar()
	m.CoresPerNode = 3
	for round := 0; round < 3; round++ {
		fs := pfs.New(pfs.DefaultConfig())
		cfg := Config{
			ServerRanks: 2,
			TCIO:        tcio.Config{SegmentSize: 64, NumSegments: 4},
		}
		var lastIdx int
		rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: m, FS: fs}, func(c *mpi.Comm) error {
			return Run(c, cfg, func(tr *Tier) error {
				f, err := tr.Open("lww", tcio.WriteMode)
				if err != nil {
					return err
				}
				if tr.ClientIndex() == tr.NumClients()-1 {
					lastIdx = tr.Comm().Rank()
				}
				buf := make([]byte, 512)
				for i := range buf {
					buf[i] = byte(tr.Comm().Rank()*13 + i)
				}
				if err := f.WriteAt(0, buf); err != nil {
					return err
				}
				return f.Close()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = rep
		img := fs.Open("lww").Snapshot()[:512]
		for i := range img {
			if img[i] != byte(lastIdx*13+i) {
				t.Fatalf("round %d: byte %d = %d, want highest client rank %d's %d",
					round, i, img[i], lastIdx, byte(lastIdx*13+i))
			}
		}
	}
}

// TestDelegateBackpressure pins the admission window: one client issuing
// 64 block-aligned writes to its one server in a single epoch spends the
// queueDepth credits on the first writes and stalls for one grant on every
// write after them, and the bytes still land intact.
func TestDelegateBackpressure(t *testing.T) {
	const procs, servers = 2, 1
	const granule, fileBytes = int64(16), int64(16 * 64)
	_, img, stats, _ := delegateRun(t, procs, servers, granule, fileBytes)
	for off := int64(0); off < fileBytes; off++ {
		if img[off] != expectByte(0, off) {
			t.Fatalf("file byte %d corrupted under backpressure", off)
		}
	}
	var st Stats // the one client's counters; the server's slot stays zero
	for _, s := range stats {
		st.WriteReqs += s.WriteReqs
		st.CreditStalls += s.CreditStalls
	}
	if st.WriteReqs != fileBytes/granule {
		t.Fatalf("write requests = %d, want %d", st.WriteReqs, fileBytes/granule)
	}
	if want := st.WriteReqs - queueDepth; st.CreditStalls != want {
		t.Fatalf("credit stalls = %d, want writes - %d = %d", st.CreditStalls, queueDepth, want)
	}
}

// TestDelegateDeterministicImage runs the same seed twice and demands
// byte-identical images and identical server counters: arrival races must
// not leak into anything observable.
func TestDelegateDeterministicImage(t *testing.T) {
	const procs, servers = 8, 3
	const granule, fileBytes = int64(24), int64(24 * 80)
	_, img1, _, col1 := delegateRun(t, procs, servers, granule, fileBytes)
	_, img2, _, col2 := delegateRun(t, procs, servers, granule, fileBytes)
	if !bytes.Equal(img1, img2) {
		t.Fatal("same workload produced different file images")
	}
	s1, s2 := col1.Servers(), col2.Servers()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("server %d counters differ across runs:\n%+v\n%+v", s1[i].Rank, s1[i], s2[i])
		}
	}
}

// TestDelegateMultiFile holds two write-mode files open concurrently on
// every client, interleaves their writes, and checks both images and the
// independence of the per-file ledgers.
func TestDelegateMultiFile(t *testing.T) {
	const procs, servers = 6, 2
	const granule = int64(32)
	sizes := []int64{32 * 48, 32 * 24}
	m := cluster.Lonestar()
	m.CoresPerNode = 3
	fs := pfs.New(pfs.DefaultConfig())
	col := &Collector{}
	cfg := Config{
		ServerRanks: servers,
		TCIO:        tcio.Config{SegmentSize: 64, NumSegments: 8},
		Collect:     col,
	}
	type ledger struct{ a, b Stats }
	ledgers := make([]ledger, procs)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: m, FS: fs}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			fa, err := tr.Open("multi-a", tcio.WriteMode)
			if err != nil {
				return err
			}
			fb, err := tr.Open("multi-b", tcio.WriteMode)
			if err != nil {
				return err
			}
			files := []*File{fa, fb}
			buf := make([]byte, granule)
			for fi, f := range files {
				for k := int64(tr.ClientIndex()); k*granule < sizes[fi]; k += int64(tr.NumClients()) {
					off := k * granule
					for i := range buf {
						buf[i] = expectByte(fi, off+int64(i))
					}
					// Interleave: write to the other file between writes.
					if err := f.WriteAt(off, buf); err != nil {
						return err
					}
				}
			}
			if err := fa.Flush(); err != nil {
				return err
			}
			if err := fb.Flush(); err != nil {
				return err
			}
			if err := fa.Close(); err != nil {
				return err
			}
			if err := fb.Close(); err != nil {
				return err
			}
			ledgers[c.Rank()] = ledger{a: fa.Stats(), b: fb.Stats()}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for fi, name := range []string{"multi-a", "multi-b"} {
		img := fs.Open(name).Snapshot()
		for off := int64(0); off < sizes[fi]; off++ {
			if img[off] != expectByte(fi, off) {
				t.Fatalf("%s byte %d = %d, want %d", name, off, img[off], expectByte(fi, off))
			}
		}
	}
	for r, l := range ledgers {
		if l.a.Writes == 0 {
			continue // server rank
		}
		if l.a.WriteBytes <= l.b.WriteBytes {
			t.Fatalf("rank %d: file-a ledger (%d bytes) not independent of file-b (%d bytes)",
				r, l.a.WriteBytes, l.b.WriteBytes)
		}
	}
}

// TestDelegateConfigValidation covers Run's rejection paths.
func TestDelegateConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"servers eat all ranks", Config{ServerRanks: 4}},
		{"negative servers", Config{ServerRanks: -1}},
		{"no servers", Config{}},
		{"bad tcio config", Config{ServerRanks: 1, TCIO: tcio.Config{SegmentSize: -1}}},
		{"journal with servers", Config{ServerRanks: 1, TCIO: tcio.Config{Journal: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mpi.Run(mpi.Config{Procs: 4, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
				return Run(c, tc.cfg, func(*Tier) error { return nil })
			})
			if err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestConfigNormalizeDefaults: a tier gets a normalized tcio geometry (the
// domain blocks derive from it).
func TestConfigNormalizeDefaults(t *testing.T) {
	armed, err := Config{ServerRanks: 1}.Normalize(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	if armed.TCIO.SegmentSize != 512 {
		t.Fatalf("armed default segment %d; want 512", armed.TCIO.SegmentSize)
	}
}

// TestServerLoopHandlerError pins that a handler failure aborts the server's
// request loop with the op and source rank in the error.
func TestServerLoopHandlerError(t *testing.T) {
	cfg := Config{ServerRanks: 1, TCIO: tcio.Config{SegmentSize: 64, NumSegments: 8}}
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			return tr.request(0, &mpi.RPCRequest{Op: mpi.OpFlush, Handle: 7})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "flush from rank") ||
		!strings.Contains(err.Error(), "unknown handle 7") {
		t.Fatalf("err = %v, want the failed op, its source and the handler's error", err)
	}
}
