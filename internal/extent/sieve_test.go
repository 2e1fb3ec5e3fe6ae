package extent

import (
	"math/rand"
	"testing"
)

// genRuns draws a random run list: mixed lengths including zero-length
// runs, overlaps, and runs touching multiples of gran (segment
// boundaries), over a file of the given size.
func genRuns(rng *rand.Rand, fileSize, gran int64) []Extent {
	n := rng.Intn(12)
	runs := make([]Extent, 0, n)
	for i := 0; i < n; i++ {
		off := rng.Int63n(fileSize)
		switch rng.Intn(5) {
		case 0: // zero-length
			runs = append(runs, Extent{Off: off})
			continue
		case 1: // snapped to a boundary
			off -= off % gran
		case 2: // ending exactly on a boundary
			off -= off % gran
			if off >= gran {
				off -= gran
			}
			runs = append(runs, Extent{Off: off, Len: gran})
			continue
		}
		maxLen := fileSize - off
		if maxLen > 3*gran {
			maxLen = 3 * gran
		}
		runs = append(runs, Extent{Off: off, Len: 1 + rng.Int63n(maxLen)})
	}
	return runs
}

// TestSievePlanCoverContainsRuns: every planned cover contains each of its
// member runs, every non-empty input run is assigned to exactly one group,
// and no cover exceeds the budget unless it serves a single run larger
// than the budget.
func TestSievePlanCoverContainsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		fileSize := int64(64 + rng.Intn(4096))
		gran := int64(16 << rng.Intn(4))
		runs := genRuns(rng, fileSize, gran)
		budget := []int64{0, 1, 7, gran, 2 * gran, fileSize}[rng.Intn(6)]
		groups := SievePlan(runs, budget)

		seen := make(map[int]bool)
		for _, g := range groups {
			if len(g.Index) == 0 {
				t.Fatalf("trial %d: empty group %+v", trial, g)
			}
			for _, i := range g.Index {
				if seen[i] {
					t.Fatalf("trial %d: run %d in two groups", trial, i)
				}
				seen[i] = true
				r := runs[i]
				if r.Off < g.Cover.Off || r.End() > g.Cover.End() {
					t.Fatalf("trial %d: cover %+v does not contain run %+v", trial, g.Cover, r)
				}
			}
			if g.Cover.Len > budget && len(g.Index) > 1 {
				t.Fatalf("trial %d: multi-run cover %+v exceeds budget %d", trial, g.Cover, budget)
			}
		}
		for i, r := range runs {
			if r.Len > 0 && !seen[i] {
				t.Fatalf("trial %d: non-empty run %d (%+v) not planned", trial, i, r)
			}
			if r.Len <= 0 && seen[i] {
				t.Fatalf("trial %d: zero-length run %d planned", trial, i)
			}
		}
	}
}

// TestSieveScatterMatchesNaive: reading each cover once and scattering its
// member runs reproduces, byte for byte, a naive per-run read — including
// zero-length runs (nothing delivered) and runs abutting segment
// boundaries.
func TestSieveScatterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 500; trial++ {
		fileSize := int64(64 + rng.Intn(2048))
		file := make([]byte, fileSize)
		for i := range file {
			file[i] = byte(rng.Intn(256))
		}
		gran := int64(16 << rng.Intn(3))
		runs := genRuns(rng, fileSize, gran)
		budget := []int64{0, 1, gran, 3 * gran, fileSize}[rng.Intn(5)]

		// Naive: one read per run.
		naive := make([][]byte, len(runs))
		for i, r := range runs {
			naive[i] = append([]byte(nil), file[r.Off:r.End()]...)
		}

		// Sieved: one read per cover, then scatter.
		sieved := make([][]byte, len(runs))
		for i, r := range runs {
			sieved[i] = make([]byte, r.Len)
		}
		for _, g := range SievePlan(runs, budget) {
			stage := file[g.Cover.Off:g.Cover.End()] // the one covering read
			for _, i := range g.Index {
				r := runs[i]
				copy(sieved[i], stage[r.Off-g.Cover.Off:])
			}
		}

		for i := range runs {
			if string(naive[i]) != string(sieved[i]) {
				t.Fatalf("trial %d budget %d: run %d (%+v) sieved bytes differ from naive read",
					trial, budget, i, runs[i])
			}
		}
	}
}

// TestSievePlanBudgetMonotonic: with an unbounded budget all runs share
// one cover spanning their union; with budget <= 0 every run is its own
// cover.
func TestSievePlanBudgetMonotonic(t *testing.T) {
	runs := []Extent{{Off: 100, Len: 10}, {Off: 130, Len: 5}, {Off: 200, Len: 20}, {Off: 0, Len: 3}}
	one := SievePlan(runs, 1<<40)
	if len(one) != 1 {
		t.Fatalf("unbounded budget: %d covers, want 1", len(one))
	}
	if one[0].Cover.Off != 0 || one[0].Cover.End() != 220 {
		t.Fatalf("unbounded cover %+v, want [0,220)", one[0].Cover)
	}
	each := SievePlan(runs, 0)
	if len(each) != len(runs) {
		t.Fatalf("zero budget: %d covers, want %d", len(each), len(runs))
	}
	for _, g := range each {
		if len(g.Index) != 1 || g.Cover != runs[g.Index[0]] {
			t.Fatalf("zero budget: cover %+v serves runs %v, want exactly one", g.Cover, g.Index)
		}
	}
}
