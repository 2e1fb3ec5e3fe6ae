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

// TestChaosSeedMatters checks that a different seed draws a different fault
// pattern (the sweep is seeded, not hard-wired).
func TestChaosSeedMatters(t *testing.T) {
	a := chaosRows(t, testChaosGeometry(), testChaosOptions)
	b := chaosRows(t, testChaosGeometry(), Options{Seed: 4, LenReal: 256})
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 3 and 4 produced identical chaos tables")
	}
}
