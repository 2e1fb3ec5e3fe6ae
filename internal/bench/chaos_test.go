package bench

import (
	"reflect"
	"testing"

	"github.com/tcio/tcio/internal/faults"
)

func testChaosGeometry() *chaosGeometry {
	return &chaosGeometry{
		synthGeometry: synthGeometry{Procs: 8, LenSim: 64 << 10},
		Rates:         []float64{0.2},
		Rules: chaosRules{
			faults.SiteOSTSlow: {Prob: 0.05, Factor: 4}, faults.SiteNetSetup: {Prob: 0.02},
			faults.SiteMemAlloc: {Prob: 0.01}, faults.SiteWinPut: {Prob: 0.02},
		},
	}
}

// testChaosOptions seeds the miniature chaos sweep.
var testChaosOptions = Options{Seed: 3, LenReal: 256}

// chaosRows runs the miniature chaos sweep and returns its table's rows.
func chaosRows(t *testing.T, g *chaosGeometry, o Options) [][]string {
	t.Helper()
	rep, err := Run(chaosSweep(g), o)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Tables(nil)[0].Rows
}

// TestChaosCountsWorkerInvariant pins the determinism contract of the
// drain fan-out: on a multi-OST stripe, every injection and retry count in
// the chaos table is identical whether TCIO drains serially or over four
// workers — only the reported drain-workers column may differ. Fault rolls
// key on request identity, so reordering requests across OST lanes cannot
// change them.
func TestChaosCountsWorkerInvariant(t *testing.T) {
	run := func(workers int) [][]string {
		g := testChaosGeometry()
		g.StripeCount = 7 // coprime with 8 procs: segments spread over OSTs
		g.Workers = workers
		const workersCol = 3
		var rows [][]string
		for _, row := range chaosRows(t, g, testChaosOptions) {
			rows = append(rows, append(append([]string(nil), row[:workersCol]...), row[workersCol+1:]...))
		}
		return rows
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("drain fan-out changed chaos counts:\nworkers=1: %v\nworkers=4: %v",
			serial, parallel)
	}
}

// TestChaosSeedMatters checks that a different seed draws a different fault
// pattern (the sweep is seeded, not hard-wired).
func TestChaosSeedMatters(t *testing.T) {
	a := chaosRows(t, testChaosGeometry(), testChaosOptions)
	b := chaosRows(t, testChaosGeometry(), Options{Seed: 4, LenReal: 256})
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 3 and 4 produced identical chaos tables")
	}
}
