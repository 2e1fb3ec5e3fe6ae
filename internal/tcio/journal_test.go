package tcio

// Tests of the journal tier: clean-run truncation, crash recovery to a
// byte-exact image, and the disarmed path's zero-overhead guarantee.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
)

// journalPattern writes `blocks` 16-byte blocks per rank, round-robin
// interleaved, flushing after each of `rounds` equal parts. The data byte
// at (rank, block, j) is rank*31 + block*7 + j + 5.
func journalPattern(c *mpi.Comm, f *File, blocks, rounds int) error {
	per := (blocks + rounds - 1) / rounds
	for i := 0; i < blocks; i++ {
		pos := int64((i*c.Size() + c.Rank()) * 16)
		var buf [16]byte
		for j := range buf {
			buf[j] = byte(c.Rank()*31 + i*7 + j + 5)
		}
		if err := f.WriteAt(pos, buf[:]); err != nil {
			return err
		}
		if (i+1)%per == 0 && i+1 < blocks {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// journalExpected is the file image journalPattern produces.
func journalExpected(procs, blocks int) []byte {
	out := make([]byte, procs*blocks*16)
	for r := 0; r < procs; r++ {
		for i := 0; i < blocks; i++ {
			base := (i*procs + r) * 16
			for j := 0; j < 16; j++ {
				out[base+j] = byte(r*31 + i*7 + j + 5)
			}
		}
	}
	return out
}

func TestJournalCleanRunTruncatesAndRecoverIsNoop(t *testing.T) {
	const procs, blocks = 3, 24
	fs := pfs.New(pfs.DefaultConfig())
	cfg := Config{SegmentSize: 64, NumSegments: 48, Journal: true}
	stats := make([]Stats, procs)
	if _, err := mpi.Run(mpi.Config{Procs: procs, FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "clean", WriteMode, cfg)
		if err != nil {
			return err
		}
		if err := journalPattern(c, f, blocks, 3); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		stats[c.Rank()] = f.Stats()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := fs.Open("clean").Snapshot()
	if want := journalExpected(procs, blocks); !bytes.Equal(got, want) {
		t.Fatalf("journaled run diverged: got %d bytes, want %d", len(got), len(want))
	}
	for r := 0; r < procs; r++ {
		s := stats[r]
		if s.JournalEpochs == 0 || s.JournalCommits != s.JournalEpochs {
			t.Fatalf("rank %d: epochs=%d commits=%d", r, s.JournalEpochs, s.JournalCommits)
		}
		wn := WALFileName("clean", r)
		if !fs.Exists(wn) {
			t.Fatalf("rank %d: journal file missing", r)
		}
		if sz := fs.Open(wn).Size(); sz != 0 {
			t.Fatalf("rank %d: journal not truncated after clean Close: %d bytes", r, sz)
		}
	}
	rep, err := Recover(fs, "clean", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesApplied != 0 {
		t.Fatalf("recovery after clean Close replayed %d bytes", rep.BytesApplied)
	}
}

func TestCrashBeforeDrainRecoversByteExact(t *testing.T) {
	const procs, blocks = 4, 32
	fsCfg := pfs.DefaultConfig()
	fs := pfs.New(fsCfg)
	log := &pfs.Oplog{}
	fs.SetOplog(log)
	cfg := Config{SegmentSize: 64, NumSegments: 64, Journal: true}
	if _, err := mpi.Run(mpi.Config{Procs: procs, FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "crash", WriteMode, cfg)
		if err != nil {
			return err
		}
		if err := journalPattern(c, f, blocks, 4); err != nil {
			return err
		}
		return f.Close()
	}); err != nil {
		t.Fatal(err)
	}
	// Crash at the instant the last journal store settled: every epoch is
	// committed, no drain store has started, so recovery must rebuild the
	// complete final image from the journals alone.
	var at simtime.Time
	for _, r := range log.Records() {
		if r.Kind == pfs.OpStore && strings.Contains(r.Name, ".wal.") && r.End > at {
			at = r.End
		}
	}
	if at == 0 {
		t.Fatal("no journal stores logged")
	}
	crashed := pfs.New(fsCfg)
	log.ReplayAt(crashed, at)
	if got := crashed.Open("crash").Snapshot(); len(got) != 0 {
		t.Fatalf("data file has %d bytes before any drain started", len(got))
	}
	rep, err := Recover(crashed, "crash", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := journalExpected(procs, blocks)
	if rep.BytesApplied < int64(len(want)) {
		t.Fatalf("recovery applied %d bytes, want at least %d", rep.BytesApplied, len(want))
	}
	if got := crashed.Open("crash").Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("recovered image diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDisarmedJournalZeroOverhead runs the same workload with and without
// the journal: the disarmed run must issue exactly the data-file request
// stream of the armed run (the journal adds side-file requests, never
// changes data ones), report zero journal activity, and create no journal
// files.
func TestDisarmedJournalZeroOverhead(t *testing.T) {
	const procs, blocks = 3, 24
	type outcome struct {
		stats []Stats
		image []byte
	}
	runOne := func(journal bool) outcome {
		fs := pfs.New(pfs.DefaultConfig())
		cfg := Config{SegmentSize: 64, NumSegments: 48, Journal: journal}
		out := outcome{stats: make([]Stats, procs)}
		if _, err := mpi.Run(mpi.Config{Procs: procs, FS: fs}, func(c *mpi.Comm) error {
			f, err := Open(c, "zero", WriteMode, cfg)
			if err != nil {
				return err
			}
			if err := journalPattern(c, f, blocks, 3); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			out.stats[c.Rank()] = f.Stats()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if journal {
			for r := 0; r < procs; r++ {
				if !fs.Exists(WALFileName("zero", r)) {
					t.Fatalf("armed run missing journal of rank %d", r)
				}
			}
		} else if fs.Exists(WALFileName("zero", 0)) {
			t.Fatal("disarmed run created a journal file")
		}
		out.image = fs.Open("zero").Snapshot()
		return out
	}
	off, on := runOne(false), runOne(true)
	if !bytes.Equal(off.image, on.image) {
		t.Fatal("journal changed the data file's bytes")
	}
	for r := 0; r < procs; r++ {
		d, a := off.stats[r], on.stats[r]
		if d.JournalEpochs != 0 || d.JournalAppends != 0 || d.JournalBytes != 0 ||
			d.JournalCommits != 0 {
			t.Fatalf("rank %d: disarmed run counted journal activity: %+v", r, d)
		}
		if d.FSWrites != a.FSWrites || d.BytesWritten != a.BytesWritten {
			t.Fatalf("rank %d: journal changed the data request stream: fsWrites %d vs %d",
				r, d.FSWrites, a.FSWrites)
		}
	}
}
