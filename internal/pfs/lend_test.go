package pfs

// Tests for the lend (LendAtRetry): a reader takes the store's pages by
// reference instead of a copy, pays exactly what a read pays, and keeps the
// bytes as they were at the lend — the store never writes a lent page in
// place again.

import (
	"bytes"
	"testing"

	"github.com/tcio/tcio/internal/faults"
)

// lendSpan lends the span's bytes from f: one page table entry per page the
// span touches, from the page holding its first byte.
func lendSpan(t *testing.T, f *File, s span) [][]byte {
	t.Helper()
	pages := make([][]byte, 4)
	if _, _, err := f.LendAtRetry(0, s.off, int64(len(s.data)), pages, 0, faults.NoRetry()); err != nil {
		t.Fatal(err)
	}
	return pages
}

// lentBytes is the n bytes at off of a lend's page table whose first page
// starts at 0, nil pages reading as zeros.
func lentBytes(pages [][]byte, page, off, n int64) []byte {
	out := make([]byte, 0, n)
	for at := off; at < off+n; at++ {
		if p := pages[at/page]; p != nil {
			out = append(out, p[at%page])
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// TestLendChargesAsARead: with an injected read fault to retry, a lend and a
// read of the same bytes complete at the same instant with the same retries
// and Stats, and the lent pages hold the bytes the read copied — a hole's
// page lent as nil.
func TestLendChargesAsARead(t *testing.T) {
	type outcome struct {
		end, retries int64
		stats        Stats
		bytes        []byte
	}
	eachGeometry(t, func(t *testing.T, cfg Config) {
		do := func(lend bool) outcome {
			cfg.Faults = faults.New(5).Set(faults.SiteOSTRead, faults.Rule{Prob: 1, MaxInjected: 1})
			fs := New(cfg)
			f := fs.Open("lend")
			s := newSpan(fs)
			// Pages 1 and 2 only: the head's page 0 and the tail's page 3 are
			// holes.
			f.StoreDirect(s.page, s.data[s.edge:s.edge+2*s.page])
			n := int64(len(s.data))
			if !lend {
				dst := make([]byte, n)
				end, retries, err := f.ReadAtRetry(0, s.off, dst, 0, faults.DefaultRetryPolicy())
				if err != nil {
					t.Fatal(err)
				}
				return outcome{int64(end), retries, fs.Stats(), dst}
			}
			pages := make([][]byte, 4)
			end, retries, err := f.LendAtRetry(0, s.off, n, pages, 0, faults.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			if pages[0] != nil || pages[3] != nil {
				t.Fatal("a hole was lent a page")
			}
			for i := int64(1); i <= 2; i++ {
				if &pages[i][0] != &f.pages[i][0] {
					t.Fatalf("page %d was lent a copy, want the store's page", i)
				}
			}
			return outcome{int64(end), retries, fs.Stats(), lentBytes(pages, s.page, s.off, n)}
		}
		read, lent := do(false), do(true)
		if read.stats.FaultsInjected != 1 || read.stats.Retries != 1 || read.stats.Reads != 1 {
			t.Fatalf("read: stats %+v, want one fault, one retry, one read", read.stats)
		}
		if lent.end != read.end || lent.retries != read.retries || lent.stats != read.stats {
			t.Fatalf("lend (end %d, retries %d, %+v) differs from read (end %d, retries %d, %+v)",
				lent.end, lent.retries, lent.stats, read.end, read.retries, read.stats)
		}
		if !bytes.Equal(lent.bytes, read.bytes) {
			t.Fatal("the lent pages hold other bytes than the read copied")
		}
	})
}

// TestWriteIntoLentPageLeavesItIntact: an ordinary write into lent pages —
// one across pages 1 and 2 — leaves every lent slice byte-identical, the
// file holds the new bytes in fresh pages, and a second write into such a
// page, which nobody borrowed, writes it in place.
func TestWriteIntoLentPageLeavesItIntact(t *testing.T) {
	eachGeometry(t, func(t *testing.T, cfg Config) {
		fs := New(cfg)
		f := fs.Open("cow")
		s := newSpan(fs)
		if _, err := f.WriteAt(0, s.off, s.data, 0); err != nil {
			t.Fatal(err)
		}
		pages := lendSpan(t, f, s)
		before := make([][]byte, len(pages))
		for i, p := range pages {
			before[i] = bytes.Clone(p)
		}
		want := s.dense()
		patch := bytes.Repeat([]byte{0x5A}, int(s.page))
		at := s.page + s.page/2
		if _, err := f.WriteAt(1, at, patch, 0); err != nil {
			t.Fatal(err)
		}
		copy(want[at:], patch)
		for i, p := range pages {
			if !bytes.Equal(p, before[i]) {
				t.Fatalf("page %d changed under its borrower", i)
			}
		}
		if got := f.Snapshot(); !bytes.Equal(got, want) {
			t.Fatal("the file does not hold the new bytes")
		}
		fresh := f.pages[1]
		if &fresh[0] == &pages[1][0] {
			t.Fatal("the write went into the lent page")
		}
		if _, err := f.WriteAt(1, s.page, []byte{7}, 0); err != nil {
			t.Fatal(err)
		}
		if &f.pages[1][0] != &fresh[0] || fresh[0] != 7 {
			t.Fatal("a write into a page nobody borrowed did not write it in place")
		}
	})
}

// TestLentPageSurvivesTruncateResetAndHandOver: a lent page keeps its bytes
// through a truncate, a Reset, and a hand-over that replaces the same file
// pages.
func TestLentPageSurvivesTruncateResetAndHandOver(t *testing.T) {
	eachGeometry(t, func(t *testing.T, cfg Config) {
		fs := New(cfg)
		f := fs.Open("survive")
		s := newSpan(fs)
		if _, err := f.WriteAt(0, s.off, s.data, 0); err != nil {
			t.Fatal(err)
		}
		pages := lendSpan(t, f, s)
		want := lentBytes(pages, s.page, s.off, int64(len(s.data)))
		if !bytes.Equal(want, s.data) {
			t.Fatal("the lent pages do not hold the written bytes")
		}
		if _, _, err := f.TruncateAtRetry(0, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		fs.Reset()
		other := bytes.Repeat([]byte{0xC3}, len(s.data))
		if _, _, err := f.HandOverAtRetry(0, s.off, other, 0, faults.NoRetry()); err != nil {
			t.Fatal(err)
		}
		if got := lentBytes(pages, s.page, s.off, int64(len(s.data))); !bytes.Equal(got, want) {
			t.Fatal("a lent page changed through truncate, Reset and hand-over")
		}
		if got := f.Snapshot()[s.off:]; !bytes.Equal(got, other) {
			t.Fatal("the file does not hold the handed-over bytes")
		}
	})
}
