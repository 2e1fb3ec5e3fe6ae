package pfs

// Tests for the hand-over write (HandOverAtRetry): the store keeps each page
// a request covers whole as a slice of the caller's buffer, copies the rest,
// and charges, rolls and counts exactly what an ordinary write does. The
// page follows the stripe (FileSystem.page), so every case runs at a small stripe,
// whose page is the stripe, and at the default one, whose page is maxPage.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/simtime"
)

// eachGeometry runs fn at testConfig's 1 KiB stripe and DefaultConfig's
// 1 MiB one.
func eachGeometry(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for _, cfg := range []Config{testConfig(), DefaultConfig()} {
		t.Run(fmt.Sprintf("stripe-%d", cfg.StripeSize), func(t *testing.T) { fn(t, cfg) })
	}
}

// span is a request over [page−edge, 3·page+edge) of a file system whose
// page is page: an edge-byte head in page 0, pages 1 and 2 whole, an
// edge-byte tail in page 3. edge is 100 bytes, or half a smaller page.
type span struct {
	page, edge, off int64
	data            []byte
}

func newSpan(fs *FileSystem) span {
	edge := min(100, fs.page/2)
	s := span{page: fs.page, edge: edge, off: fs.page - edge, data: make([]byte, 2*(fs.page+edge))}
	for i := range s.data {
		s.data[i] = byte(i*7 + i>>9)
	}
	return s
}

// dense is the reference image of a file holding only the span.
func (s span) dense() []byte { return append(make([]byte, s.off), s.data...) }

func TestHandOverKeepsWholePages(t *testing.T) {
	eachGeometry(t, func(t *testing.T, cfg Config) {
		fs := New(cfg)
		f := fs.Open("h")
		s := newSpan(fs)
		data, ps, edge := s.data, int(s.page), int(s.edge)
		if _, _, err := f.HandOverAtRetry(0, s.off, data, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		for page, at := range map[int64]int{1: edge, 2: edge + ps} {
			p := f.pages[page]
			if &p[0] != &data[at] || len(p) != ps || cap(p) != ps {
				t.Errorf("page %d is not data[%d:%d:%d]", page, at, at+ps, at+ps)
			}
		}
		if &f.pages[0][ps-edge] == &data[0] {
			t.Error("head page aliases the caller's buffer")
		}
		if &f.pages[3][0] == &data[len(data)-edge] {
			t.Error("tail page aliases the caller's buffer")
		}
		want := s.dense()
		// Head and tail are copies: the caller's later bytes there do not
		// reach the file.
		data[0], data[len(data)-1] = ^data[0], ^data[len(data)-1]
		if got := f.Snapshot(); !bytes.Equal(got, want) {
			t.Fatal("file differs from the handed-over bytes outside the kept pages")
		}
	})
}

func TestOrdinaryWriteCopiesEveryPage(t *testing.T) {
	eachGeometry(t, func(t *testing.T, cfg Config) {
		fs := New(cfg)
		f := fs.Open("w")
		s := newSpan(fs)
		data, ps, edge := s.data, int(s.page), int(s.edge)
		if _, err := f.WriteAt(0, s.off, data, 0); err != nil {
			t.Fatal(err)
		}
		// Each page's first written byte against the caller's byte it holds.
		for _, c := range []struct {
			page   int64
			in, at int
		}{{0, ps - edge, 0}, {1, 0, edge}, {2, 0, edge + ps}, {3, 0, len(data) - edge}} {
			if &f.pages[c.page][c.in] == &data[c.at] {
				t.Errorf("page %d aliases the caller's buffer", c.page)
			}
		}
		want := s.dense()
		for i := range data {
			data[i] = ^data[i]
		}
		if got := f.Snapshot(); !bytes.Equal(got, want) {
			t.Fatal("changing the caller's buffer after WriteAt returned changed the file")
		}
	})
}

// TestHandOverPagesServeLaterOperations: a kept page is the file's: an
// ordinary write into it, a read, a snapshot and a truncate see what a
// dense reference holds.
func TestHandOverPagesServeLaterOperations(t *testing.T) {
	eachGeometry(t, func(t *testing.T, cfg Config) {
		fs := New(cfg)
		f := fs.Open("later")
		s := newSpan(fs)
		want := s.dense()
		if _, _, err := f.HandOverAtRetry(0, s.off, s.data, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		patch := []byte("written into a kept page, across into the next")
		at := 2*s.page - 20
		if _, err := f.WriteAt(1, at, patch, 0); err != nil {
			t.Fatal(err)
		}
		copy(want[at:], patch)
		got := make([]byte, 300)
		if _, err := f.ReadAt(0, at-100, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[at-100:at+200]) {
			t.Fatal("ReadAt across a kept page differs from the reference")
		}
		if snap := f.Snapshot(); !bytes.Equal(snap, want) {
			t.Fatal("Snapshot differs from the reference")
		}
		if _, _, err := f.TruncateAtRetry(0, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 0 {
			t.Fatalf("size %d after truncate", f.Size())
		}
		if _, err := f.ReadAt(0, s.page, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatal("a kept page survived the truncate")
		}
	})
}

// TestHandOverFaultRetryMatchesWrite: an injected OST write fault and its
// retry store the bytes once, with the completion, retries, Stats and oplog
// record of an ordinary write; the record is a copy either way.
func TestHandOverFaultRetryMatchesWrite(t *testing.T) {
	type outcome struct {
		end     int64
		retries int64
		stats   Stats
		image   []byte
	}
	eachGeometry(t, func(t *testing.T, cfg Config) {
		var spanLen int64
		do := func(handOver bool) outcome {
			cfg.Faults = faults.New(3).Set(faults.SiteOSTWrite, faults.Rule{Prob: 1, MaxInjected: 1})
			fs := New(cfg)
			log := &Oplog{}
			fs.SetOplog(log)
			f := fs.Open("retry")
			s := newSpan(fs)
			spanLen = int64(len(s.data))
			write := f.WriteAtRetry
			if handOver {
				write = f.HandOverAtRetry
			}
			end, retries, err := write(2, s.off, s.data, 0, faults.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			var stores []OpRecord
			for _, r := range log.Records() {
				if r.Kind == OpStore {
					stores = append(stores, r)
				}
			}
			if len(stores) != 1 || stores[0].Off != s.off || !bytes.Equal(stores[0].Data, s.data) {
				t.Fatalf("handOver=%v: oplog stores %d records, want one of the request", handOver, len(stores))
			}
			if &stores[0].Data[s.edge] == &s.data[s.edge] {
				t.Fatalf("handOver=%v: the oplog record aliases the caller's buffer", handOver)
			}
			return outcome{int64(end), retries, fs.Stats(), f.Snapshot()}
		}
		plain, kept := do(false), do(true)
		if plain.stats.FaultsInjected != 1 || plain.stats.Retries != 1 || plain.stats.Writes != 1 ||
			plain.stats.BytesWritten != spanLen {
			t.Fatalf("ordinary write: stats %+v, want one fault, one retry, one write of %d bytes", plain.stats, spanLen)
		}
		if kept.end != plain.end || kept.retries != plain.retries || kept.stats != plain.stats {
			t.Fatalf("hand-over (end %d, retries %d, %+v) differs from write (end %d, retries %d, %+v)",
				kept.end, kept.retries, kept.stats, plain.end, plain.retries, plain.stats)
		}
		if !bytes.Equal(kept.image, plain.image) {
			t.Fatal("hand-over and ordinary write leave different file images")
		}
	})
}

// TestPageFollowsStripe: the store's page is the stripe, capped at 64 KiB,
// and at every page a hand-over, an ordinary write over part of what it
// kept, and the oplog's replay into a file system of the same geometry all
// hold what a dense reference holds.
func TestPageFollowsStripe(t *testing.T) {
	for _, c := range []struct{ stripe, page int64 }{
		{16, 16}, {256, 256}, {1000, 1000}, {4 << 10, 4 << 10},
		{64 << 10, 64 << 10}, {1 << 20, 64 << 10}, {4 << 20, 64 << 10},
	} {
		cfg := DefaultConfig()
		cfg.StripeSize = c.stripe
		fs := New(cfg)
		if fs.page != c.page {
			t.Errorf("stripe %d: page %d, want %d", c.stripe, fs.page, c.page)
			continue
		}
		log := &Oplog{}
		fs.SetOplog(log)
		f := fs.Open("page")
		s := newSpan(fs)
		want := s.dense()
		if _, _, err := f.HandOverAtRetry(0, s.off, s.data, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		if p := f.pages[1]; &p[0] != &s.data[s.edge] {
			t.Errorf("stripe %d: page 1 was copied, want it kept", c.stripe)
		}
		patch := bytes.Repeat([]byte{0xA5}, int(s.page))
		at := s.page + s.page/2 // over kept pages 1 and 2
		if _, err := f.WriteAt(1, at, patch, simtime.Time(1)); err != nil {
			t.Fatal(err)
		}
		copy(want[at:], patch)
		if got := f.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("stripe %d: image differs from the dense reference", c.stripe)
		}
		replay := New(cfg)
		log.ReplayAt(replay, simtime.Time(1<<62))
		if got := replay.Open("page").Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("stripe %d: replayed image differs from the dense reference", c.stripe)
		}
	}
}
