package bench

// Tests for the overlap sweep: byte verification and the posted demand
// read; TestHostOrderRatchet holds the chaos projection to its seed.

import (
	"testing"
)

// overlapTestLenReal is the miniature's materialized LENarray.
const overlapTestLenReal = 256

// overlapSides runs the clean sweep and splits its rows by side.
func overlapSides(t *testing.T, opts *synthGeometry) (write, read []Row) {
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
	if len(write) != 1 || len(read) != 1 {
		t.Fatalf("report has %d write / %d read points", len(write), len(read))
	}
	return write, read
}

// overlapChaosRows runs the sweep's projection and returns the table.
func overlapChaosRows(t *testing.T, opts *synthGeometry, seed int64) [][]string {
	t.Helper()
	rep, err := Run(overlapSweep(opts), Options{LenReal: overlapTestLenReal, Seed: seed, Chaos: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Tables(nil)[0].Rows
}

func TestOverlapSweep(t *testing.T) {
	opts := defaultOverlap()
	_, read := overlapSides(t, opts)
	// The demand read reads every segment exactly once: whichever rank
	// fetches a segment first posts it.
	demand := read[0]
	if demand.TCIO.Populations != demand.FS.Reads || demand.FS.Reads == 0 {
		t.Fatalf("populations %d, fs reads %d: a segment was read twice, or none was",
			demand.TCIO.Populations, demand.FS.Reads)
	}
	// A fetch posts its batch at once, so the demand read needs no lookahead
	// lane to hide the file system: it is no slower than the lane's window 4
	// was on this miniature. At 16 ranks the OSTs serve requests in
	// host-arrival order and both times move with the schedule.
	if demand.Time > lanePrefetch4Ns {
		t.Fatalf("the posted demand read took %d ns, the prefetch lane's window 4 took %d ns",
			demand.Time, lanePrefetch4Ns)
	}
	// On one rank the request stream is totally ordered and the time exact.
	opts.Procs = 1
	_, solo := overlapSides(t, opts)
	if got := solo[0].Time; got != soloDemandNs || got > soloPrefetch4Ns {
		t.Fatalf("one rank's demand read took %d ns, want %d (the lane's window 4 took %d)",
			got, soloDemandNs, soloPrefetch4Ns)
	}
}

// The overlap miniature's read times, in virtual ns: the posted demand read
// on one rank (exact), and the deleted prefetch lane's window-4 read on 16
// ranks (its most common time, 142 of 300 runs at -cpu 1,2,8; the runs
// spanned 372 760 365 – 482 664 857) and on one rank (exact).
const (
	soloDemandNs    = 252579028
	lanePrefetch4Ns = 481471286
	soloPrefetch4Ns = 264566904
)

// TestOverlapChaosSettingInvariant reads the invariance off the chaos table:
// under injected faults the demand read still populates each segment it
// reads once.
func TestOverlapChaosSettingInvariant(t *testing.T) {
	rows := overlapChaosRows(t, defaultOverlap(), 3)
	if len(rows) != 2 {
		t.Fatalf("chaos table has %d rows, want 2", len(rows))
	}
	// Columns: phase, setting, injected, fs-retries, fs-writes, fs-reads,
	// populations, alloc-retries, result.
	if reads, pops := rows[1][5], rows[1][6]; reads != pops {
		t.Errorf("the demand read issued %s fs reads for %s populations", reads, pops)
	}
}
