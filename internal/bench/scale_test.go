package bench

// The scale harness's deterministic columns must be exactly that:
// identical run to run and across GOMAXPROCS. This is the in-repo
// counterpart of the CI scale-smoke diff, at a size small enough for
// every `go test` run.

import (
	"reflect"
	"testing"
)

func smallScale() *scaleGeometry {
	return &scaleGeometry{Procs: []int{8, 16}, GoMaxProcs: []int{1, 2}}
}

// checkScaleAcrossGoMaxProcs requires each rank count's deterministic cells
// to agree across GOMAXPROCS settings, and every point to verify.
func checkScaleAcrossGoMaxProcs(t *testing.T, rep *Report) {
	det := rep.Det() // procs, gomaxprocs, then the measured Det columns
	byProcs := map[string][]string{}
	for i, r := range rep.Rows {
		if r.Result != "ok" {
			t.Fatalf("%+v: %s", r.Point, r.Result)
		}
		ref, seen := byProcs[det[i][0]]
		if !seen {
			byProcs[det[i][0]] = det[i]
		} else if !reflect.DeepEqual(det[i][2:], ref[2:]) {
			t.Errorf("procs=%s: gomaxprocs=%s deterministic columns %v differ from gomaxprocs=%s %v",
				det[i][0], det[i][1], det[i][2:], ref[1], ref[2:])
		}
	}
}

// TestScaleGeometryNormalized pins the one-segment-per-rank invariant the
// virtual-time columns' determinism rests on: the harness's pieces fill
// exactly one segment per rank (see scalePieces).
func TestScaleGeometryNormalized(t *testing.T) {
	if int64(scalePieces)*scalePieceBytes != scaleSegSize {
		t.Fatalf("geometry %d x %d B does not fill one %d B segment",
			scalePieces, scalePieceBytes, scaleSegSize)
	}
	rep, err := Run(scaleSweep(&scaleGeometry{Procs: []int{4}, GoMaxProcs: []int{1}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Result != "ok" {
			t.Fatalf("%+v: %s", r.Point, r.Result)
		}
	}
}
