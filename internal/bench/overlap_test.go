package bench

// Tests for the overlap sweep: the write-behind win and byte verification,
// chaos reproducibility (the CI run-twice-diff contract), and count
// invariance across worker fan-out and pipeline settings.

import (
	"testing"
)

func overlapTestOpts() *overlapGeometry {
	opts := defaultOverlap()
	opts.Thresholds = []float64{0, 1}
	opts.Prefetch = []int{0, 4}
	return opts
}

// overlapTestLenReal is the miniature's materialized LENarray.
const overlapTestLenReal = 256

// overlapSides runs the clean sweep and splits its rows by side.
func overlapSides(t *testing.T, opts *overlapGeometry) (write, read []Row) {
	t.Helper()
	rep, err := Run(overlapSweep(opts), Options{LenReal: overlapTestLenReal})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		s := r.Point.(overlapSetting)
		if r.Result != "ok" {
			t.Fatalf("%+v: %s", s, r.Result)
		}
		if s.Write {
			write = append(write, r)
		} else {
			read = append(read, r)
		}
	}
	if len(write) != 2 || len(read) != 2 {
		t.Fatalf("report has %d write / %d read points", len(write), len(read))
	}
	return write, read
}

// overlapChaosRows runs the sweep's projection and returns the table.
func overlapChaosRows(t *testing.T, opts *overlapGeometry, seed int64) [][]string {
	t.Helper()
	rep, err := Run(overlapSweep(opts), Options{LenReal: overlapTestLenReal, Seed: seed, Chaos: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Tables(nil)[0].Rows
}

func TestOverlapSweep(t *testing.T) {
	opts := overlapTestOpts()
	write, read := overlapSides(t, opts)
	sync, eager := write[0], write[1]
	// Threshold 1 coalesces each segment exactly as the final drain would,
	// so the request count must match the synchronous baseline...
	if sync.FS.Writes != eager.FS.Writes {
		t.Fatalf("fs writes differ: sync %d, eager %d", sync.FS.Writes, eager.FS.Writes)
	}
	// ...and overlapping most of them with the timestep loop must win
	// end-to-end. Eager coverage detection is guaranteed by the loop's
	// barriers (contributions from earlier phases are always visible), so
	// this holds deterministically, not just on a lucky schedule.
	if eager.Time >= sync.Time {
		t.Fatalf("write-behind did not reduce write time: sync %d ns, eager %d ns (eager drains %d)",
			sync.Time, eager.Time, eager.TCIO.EagerDrains)
	}
	if eager.TCIO.EagerDrains == 0 {
		t.Fatal("threshold 1 triggered no eager drains")
	}
	demand, prefetch := read[0], read[1]
	if demand.FS.Reads != prefetch.FS.Reads {
		t.Fatalf("fs reads differ: demand %d, prefetch %d", demand.FS.Reads, prefetch.FS.Reads)
	}
	if demand.TCIO.Populations != prefetch.TCIO.Populations {
		t.Fatalf("populations differ: demand %d, prefetch %d", demand.TCIO.Populations, prefetch.TCIO.Populations)
	}
	if prefetch.TCIO.PrefetchHits == 0 {
		t.Fatal("prefetch window 4 scored no hits")
	}
	if prefetch.Time > demand.Time {
		t.Fatalf("prefetch slowed the sequential read: demand %d ns, prefetch %d ns",
			demand.Time, prefetch.Time)
	}
	// The same on one rank, whose request stream is totally ordered: at 16
	// ranks the OSTs serve requests in host-arrival order and the two times
	// move with the schedule, here both are exact.
	opts.Procs = 1
	_, solo := overlapSides(t, opts)
	if demand, prefetch := solo[0], solo[1]; prefetch.TCIO.PrefetchHits == 0 || prefetch.Time > demand.Time {
		t.Fatalf("prefetch slowed the sequential read: demand %d ns, prefetch %d ns (%d hits)",
			demand.Time, prefetch.Time, prefetch.TCIO.PrefetchHits)
	}
}

// TestOverlapChaosSettingInvariant reads the invariance off a single table:
// the write rows (thresholds 0 and 1) and the read rows (prefetch 0 and 8)
// must agree on every fault and request count — write-behind and prefetch
// change when requests happen, never which requests happen.
func TestOverlapChaosSettingInvariant(t *testing.T) {
	rows := overlapChaosRows(t, overlapTestOpts(), 3)
	if len(rows) != 4 {
		t.Fatalf("chaos table has %d rows, want 4", len(rows))
	}
	// Columns: phase, setting, injected, fs-retries, fs-writes, fs-reads,
	// populations, prefetch-hits, alloc-retries, result. Compare the fault
	// and request counts (indices 2-6) plus alloc-retries (8).
	invariant := []int{2, 3, 4, 5, 6, 8}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for _, col := range invariant {
			// prefetch-hits (7) legitimately differs between prefetch 0
			// and 8; populations (6) must not.
			if a, b := rows[pair[0]][col], rows[pair[1]][col]; a != b {
				t.Errorf("rows %d/%d column %d differ: %q vs %q", pair[0], pair[1], col, a, b)
			}
		}
	}
}
