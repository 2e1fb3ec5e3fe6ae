package tcio

// Property test: the dense, one-record-per-segment l2meta must be
// observationally identical to a reference holding one map per field. A random schedule of every metadata operation runs against both,
// with the journal's unlogged-run bookkeeping armed and disarmed; every
// return value must match. TestL2MetaConcurrent covers concurrent
// soundness under -race.

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/simtime"
)

// refL2Meta is the original map-per-field implementation, kept as the
// semantic oracle. unlogged is nil when the journal tier is disarmed.
type refL2Meta struct {
	pending   map[int64][]extent.Extent
	populated map[int64]bool
	arrival   map[int64]simtime.Time
	unlogged  map[int64][]extent.Extent
}

func newRefL2Meta(journal bool) *refL2Meta {
	m := &refL2Meta{
		pending:   make(map[int64][]extent.Extent),
		populated: make(map[int64]bool),
		arrival:   make(map[int64]simtime.Time),
	}
	if journal {
		m.unlogged = make(map[int64][]extent.Extent)
	}
	return m
}

func (m *refL2Meta) addDirty(seg int64, runs []extent.Extent, at simtime.Time) {
	m.pending[seg] = extent.Coalesce(append(m.pending[seg], runs...))
	if at > m.arrival[seg] {
		m.arrival[seg] = at
	}
	if m.unlogged != nil {
		m.unlogged[seg] = extent.Coalesce(append(m.unlogged[seg], runs...))
	}
}

func (m *refL2Meta) takeUnlogged(seg int64) []extent.Extent {
	runs := m.unlogged[seg]
	delete(m.unlogged, seg)
	return runs
}

func (m *refL2Meta) takePending(seg int64) ([]extent.Extent, simtime.Time) {
	runs, at := m.pending[seg], m.arrival[seg]
	delete(m.pending, seg)
	delete(m.arrival, seg)
	return runs, at
}

func (m *refL2Meta) setPopulated(seg int64) {
	m.populated[seg] = true
}

func extentsEqual(a, b []extent.Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestL2MetaMatchesReference(t *testing.T) {
	const segSize, segs = int64(4096), 80
	rng := rand.New(rand.NewSource(7))
	randRuns := func() []extent.Extent {
		n := 1 + rng.Intn(3)
		runs := make([]extent.Extent, 0, n)
		for i := 0; i < n; i++ {
			off := int64(rng.Intn(int(segSize - 64)))
			ln := int64(1 + rng.Intn(256))
			if off+ln > segSize {
				ln = segSize - off
			}
			runs = append(runs, extent.Extent{Off: off, Len: ln})
		}
		return runs
	}
	for trial := 0; trial < 20; trial++ {
		journal := trial%2 == 1
		m := newL2Meta(segs, journal)
		ref := newRefL2Meta(journal)
		for step := 0; step < 2000; step++ {
			seg := int64(rng.Intn(segs))
			switch rng.Intn(6) {
			case 0, 1:
				runs := randRuns()
				at := simtime.Time(rng.Intn(1000))
				m.addDirty(seg, runs, at)
				ref.addDirty(seg, runs, at)
			case 2:
				gr, ga := m.takePending(seg)
				wr, wa := ref.takePending(seg)
				if !extentsEqual(gr, wr) || ga != wa {
					t.Fatalf("trial %d step %d takePending(%d): got (%v, %v) want (%v, %v)",
						trial, step, seg, gr, ga, wr, wa)
				}
			case 3:
				if got, want := m.isPopulated(seg), ref.populated[seg]; got != want {
					t.Fatalf("trial %d step %d isPopulated(%d): got %v want %v", trial, step, seg, got, want)
				}
			case 4:
				m.setPopulated(seg, 0)
				ref.setPopulated(seg)
			case 5:
				// Disarmed, nothing is ever unlogged: both must stay empty.
				if got, want := m.takeUnlogged(seg), ref.takeUnlogged(seg); !extentsEqual(got, want) {
					t.Fatalf("trial %d step %d takeUnlogged(%d) journal=%v: got %v want %v",
						trial, step, seg, journal, got, want)
				}
			}
		}
	}
}

// TestL2MetaConcurrent hammers one l2meta from many goroutines, as remote
// ships record runs while a taker drains them. Every worker adds its own
// chunk of every segment and then takes whatever is pending; under -race
// this is the regression test for the pending bookkeeping, and
// every chunk must be taken exactly once.
func TestL2MetaConcurrent(t *testing.T) {
	const (
		workers  = 8
		segs     = 16
		segSize  = 64
		perChunk = segSize / workers
	)
	m := newL2Meta(segs, false)
	var mu sync.Mutex
	taken := make([][segSize]int, segs) // times each byte was taken
	take := func(s int64) {
		runs, _ := m.takePending(s)
		mu.Lock()
		defer mu.Unlock()
		for _, r := range runs {
			for b := r.Off; b < r.Off+r.Len; b++ {
				taken[s][b]++
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := int64(0); s < segs; s++ {
				m.addDirty(s, []extent.Extent{{Off: int64(w * perChunk), Len: perChunk}}, simtime.Time(w+1))
				take(s)
				m.setPopulated(s, 0)
				_ = m.isPopulated(s)
			}
		}(w)
	}
	wg.Wait()
	for s := int64(0); s < segs; s++ {
		take(s) // every take above raced an add; nothing may be left
		for b, n := range taken[s] {
			if n != 1 {
				t.Fatalf("segment %d byte %d taken %d times, want once", s, b, n)
			}
		}
		if !m.isPopulated(s) {
			t.Fatalf("segment %d lost populated flag", s)
		}
	}
}
