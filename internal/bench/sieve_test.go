package bench

import "testing"

// smallSieveOpts shrinks the sweep to test scale: 4 processes, 2 KiB of
// file, granule 64.
func smallSieveOpts() *sieveGeometry {
	return &sieveGeometry{
		segGeometry: segGeometry{Procs: 4, SegSize: 256, SegsPerRank: 2, Scale: 4},
		HoleGranule: 64,
		Densities:   []int{25, 50},
		Budgets:     []int64{0, 1, 256},
		Granules:    []int64{64, 256},
	}
}

func TestSieveSweepSmall(t *testing.T) {
	opts := smallSieveOpts()
	rep, err := Run(sieveSweep(opts), Options{})
	if err != nil {
		t.Fatalf("Sieve: %v", err)
	}
	byKey := map[sievePoint]Row{}
	for _, r := range rep.Rows {
		if r.Result != "ok" {
			t.Errorf("point %+v: result %q", r.Point, r.Result)
		}
		byKey[r.Point.(sievePoint)] = r
	}
	// The covering sieve must issue fewer FS reads than per-run list I/O
	// and pay for it in waste bytes.
	for _, d := range opts.Densities {
		list := byKey[sievePoint{Holes: true, HolePct: d, Budget: 1}]
		sieve := byKey[sievePoint{Holes: true, HolePct: d, Budget: 256}]
		if list.FS.Reads <= sieve.FS.Reads {
			t.Errorf("density %d: list I/O %d reads <= sieved %d", d, list.FS.Reads, sieve.FS.Reads)
		}
		if sieve.TCIO.SieveWasteBytes == 0 {
			t.Errorf("density %d: sieved cover reported no waste", d)
		}
		if list.TCIO.SieveWasteBytes != 0 {
			t.Errorf("density %d: list I/O reported waste %d", d, list.TCIO.SieveWasteBytes)
		}
	}
	// The two-phase exchange must collapse the per-rank covering reads of
	// the fine-granule interleave and be absent independently.
	indep := byKey[sievePoint{Granule: 64, Budget: opts.SegSize}]
	coll := byKey[sievePoint{Granule: 64, Budget: opts.SegSize, Collective: true}]
	if coll.FS.Reads >= indep.FS.Reads {
		t.Errorf("interleave: collective %d reads >= independent %d", coll.FS.Reads, indep.FS.Reads)
	}
	if indep.TCIO.TwoPhaseExchanges != 0 {
		t.Errorf("independent read reported %d exchanges", indep.TCIO.TwoPhaseExchanges)
	}
	if coll.TCIO.TwoPhaseExchanges == 0 {
		t.Errorf("collective read reported no exchanges")
	}
	if coll.Time >= indep.Time {
		t.Errorf("interleave granule 64: collective %dns not faster than independent %dns",
			coll.Time, indep.Time)
	}
}

func TestSieveValidate(t *testing.T) {
	opts := smallSieveOpts()
	opts.HoleGranule = 48 // does not divide SegSize
	if _, err := Run(sieveSweep(opts), Options{}); err == nil {
		t.Errorf("misaligned hole granule accepted")
	}
	opts = smallSieveOpts()
	opts.Granules = []int64{96}
	if _, err := Run(sieveSweep(opts), Options{}); err == nil {
		t.Errorf("misaligned interleave granule accepted")
	}
}
