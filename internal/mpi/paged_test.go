package mpi

// Tests for the window's page table: a WinCreatePaged window reads as zeros
// until puts allocate its pages, Install lends it whole pages by reference
// and copies the rest, and no put ever writes a lent page in place.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
)

const tpage = 16

// getAll reads target's whole window of n bytes in one locked get.
func getAll(win *Win, target int, n int64) ([]byte, error) {
	if err := win.Lock(target, false); err != nil {
		return nil, err
	}
	got, err := win.Get(target, 0, n)
	if err != nil {
		return nil, err
	}
	return got, win.Unlock(target)
}

// TestPagedWindowPutGet: a page that is no power of two is refused. Rank 0
// puts two runs, one across a page boundary, into rank 1's absent pages and
// gets the window back whole: the runs where they were put, zeros
// elsewhere, and only the pages the runs touch allocated.
func TestPagedWindowPutGet(t *testing.T) {
	const size = 5*tpage + 4 // a short last page
	_, err := Run(testCfg(2), func(c *Comm) error {
		if _, err := c.WinCreatePaged(size, 24); err == nil {
			return fmt.Errorf("a 24-byte page was accepted, want a power of two")
		}
		win, err := c.WinCreatePaged(size, tpage)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := make([]byte, size)
			runs := []datatype.Segment{{Off: tpage - 3, Len: 7}, {Off: 4*tpage + 2, Len: tpage + 2}}
			var data []byte
			for i, s := range runs {
				for j := range s.Len {
					want[s.Off+j] = byte(10*i + int(j) + 1)
					data = append(data, want[s.Off+j])
				}
			}
			if err := win.Lock(1, true); err != nil {
				return err
			}
			if err := win.PutSegments(1, runs, data); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			got, err := getAll(win, 1, size)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("window reads %v, want %v", got, want)
			}
			var present []int
			for i, p := range win.g.mems[1].pages {
				if p != nil {
					present = append(present, i)
				}
			}
			if fmt.Sprint(present) != "[0 1 4 5]" {
				return fmt.Errorf("pages %v allocated, want [0 1 4 5]", present)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInstallLendsWholePages: rank 1 installs a source table at the window's
// page size twice — in phase, so its whole pages become the window's by
// reference, and a page off phase, so everything is copied. A peer's get
// reads the source's bytes either way, and a put over installed pages
// leaves the source untouched.
func TestInstallLendsWholePages(t *testing.T) {
	for _, c := range []struct {
		name     string
		off      int64 // window offset of the installed range
		skip     int64 // source offset of its first byte
		byRef    []int // window pages that must alias the source
		n        int64
		srcPages int
	}{
		{"in phase", tpage, 0, []int{1, 2}, 2*tpage + 5, 3},
		{"off phase", tpage + 3, 0, nil, 2 * tpage, 2},
		{"source off phase", tpage, 5, nil, 2 * tpage, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := make([][]byte, c.srcPages)
			for i := range src {
				if i == 1 && c.name == "in phase" {
					continue // a hole: an absent page installs as absent
				}
				src[i] = make([]byte, tpage)
				for j := range src[i] {
					src[i][j] = byte(i*tpage + j + 1)
				}
			}
			keep := make([][]byte, len(src))
			for i := range src {
				keep[i] = bytes.Clone(src[i])
			}
			const size = 6 * tpage
			want := make([]byte, size)
			for j := range c.n {
				if p := src[(c.skip+j)/tpage]; p != nil {
					want[c.off+j] = p[(c.skip+j)%tpage]
				}
			}
			_, err := Run(testCfg(2), func(cm *Comm) error {
				win, err := cm.WinCreatePaged(size, tpage)
				if err != nil {
					return err
				}
				if cm.Rank() == 1 {
					win.Install(c.off, src, tpage, c.skip, c.n)
					for _, i := range c.byRef {
						if p := win.g.mems[1].pages[i]; p != nil && &p[0] != &src[i-int(c.off/tpage)][0] {
							return fmt.Errorf("page %d was copied, want the source's by reference", i)
						}
					}
				}
				if err := cm.Barrier(); err != nil {
					return err
				}
				if cm.Rank() == 0 {
					got, err := getAll(win, 1, size)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("window reads %v, want %v", got, want)
					}
					if err := win.Lock(1, true); err != nil {
						return err
					}
					if err := win.Put(1, 0, bytes.Repeat([]byte{0xEE}, size)); err != nil {
						return err
					}
					if err := win.Unlock(1); err != nil {
						return err
					}
				}
				return cm.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if !bytes.Equal(src[i], keep[i]) {
					t.Fatalf("a put wrote source page %d in place", i)
				}
			}
		})
	}
}

// TestGivenPageIsKept: rank 0 offers rank 1's paged window pages
// (GivePageAsync). A whole absent page is kept by reference — a later
// partial put writes into it in place — and so is a short last page; a page
// already present, and a run off phase, are copied, and their offered pages
// stay untouched. A run into a lent page copies it, and a whole page
// offered over a lent one replaces it by reference, leaving the lender's
// page untouched. A put into an absent short page allocates only its
// length.
func TestGivenPageIsKept(t *testing.T) {
	const size = 3*tpage + 12 // a short last page
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	a, b, short, off, lent, d := fill(tpage, 1), fill(tpage, 2), fill(12, 3), fill(tpage, 4), fill(tpage, 5), fill(tpage, 6)
	lent0 := fill(tpage, 10)
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreatePaged(size, tpage)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			win.Install(0, [][]byte{lent0, nil, lent}, tpage, 0, 3*tpage) // page 1 stays absent
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			m := &win.g.mems[1]
			if err := win.Lock(1, true); err != nil {
				return err
			}
			for _, g := range []struct {
				name string
				off  int64
				page []byte
				kept bool
			}{
				{"a whole absent page", tpage, a, true},
				{"a present page", tpage, b, false},
				{"a short last page", 3 * tpage, short, true},
				{"a run off phase, into a lent page", 3, off, false},
				{"a whole lent page", 2 * tpage, d, true},
			} {
				if _, kept, err := win.GivePageAsync(1, g.off, g.page); err != nil {
					return err
				} else if kept != g.kept {
					return fmt.Errorf("%s: kept = %v, want %v", g.name, kept, g.kept)
				}
				if i := g.off / tpage; g.kept && &m.pages[i][0] != &g.page[0] {
					return fmt.Errorf("%s: window page %d is not the offered page", g.name, i)
				}
			}
			if err := win.Put(1, tpage+2, []byte{9, 9, 9}); err != nil {
				return err
			}
			if err := win.Put(1, 3*tpage+11, []byte{8}); err != nil {
				return err
			}
			if err := win.Put(1, 2*tpage, []byte{7}); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			// a holds b's copy, then the run off phase's tail, then the put.
			if !bytes.Equal(a[:6], []byte{4, 4, 9, 9, 9, 2}) || short[11] != 8 || d[0] != 7 {
				return fmt.Errorf("kept pages were not written in place: %v, %v, %v", a[:6], short, d[:2])
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, fill(tpage, 2)) || !bytes.Equal(off, fill(tpage, 4)) ||
		!bytes.Equal(lent0, fill(tpage, 10)) || !bytes.Equal(lent, fill(tpage, 5)) {
		t.Fatal("a copied or lent page was written in place")
	}
	_, err = Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreatePaged(12, tpage)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(1, true); err != nil {
				return err
			}
			if err := win.Put(1, 5, []byte{1}); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			if p := win.g.mems[1].pages[0]; len(p) != 12 || cap(p) != 12 {
				return fmt.Errorf("a put allocated a page of %d bytes (cap %d), want the window's 12", len(p), cap(p))
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGiveChargesAsAPut: a world whose rank 0 gives rank 1 a whole page and
// one that puts the same bytes end with the same clocks and network
// counters.
func TestGiveChargesAsAPut(t *testing.T) {
	var reps [2]Report
	for i, give := range []bool{false, true} {
		rep, err := Run(testCfg(2), func(c *Comm) error {
			win, err := c.WinCreatePaged(4*tpage, tpage)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := win.Lock(1, false); err != nil {
					return err
				}
				page := bytes.Repeat([]byte{3}, tpage)
				if give {
					_, _, err = win.GivePageAsync(1, tpage, page)
				} else {
					_, err = win.PutSegmentsAsync(1, []datatype.Segment{{Off: tpage, Len: tpage}}, page)
				}
				if err != nil {
					return err
				}
				if err := win.Unlock(1); err != nil {
					return err
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if fmt.Sprint(reps[0].RankTimes, reps[0].Net) != fmt.Sprint(reps[1].RankTimes, reps[1].Net) {
		t.Fatalf("put %v %+v, give %v %+v", reps[0].RankTimes, reps[0].Net, reps[1].RankTimes, reps[1].Net)
	}
}
