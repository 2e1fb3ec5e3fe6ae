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
