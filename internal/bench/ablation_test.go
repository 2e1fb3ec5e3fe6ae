package bench

import (
	"strings"
	"testing"
)

func TestAblationsRunAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := Run(ablationSweep(&synthGeometry{Procs: 8, LenSim: 64 << 10}), Options{LenReal: 512})
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Tables(nil)[0]
	if len(table.Rows) != len(ablationVariants()) {
		t.Fatalf("%d rows, want %d", len(table.Rows), len(ablationVariants()))
	}
	for _, row := range table.Rows {
		if strings.Contains(strings.Join(row, " "), "FAIL") {
			t.Fatalf("ablation variant failed: %v", row)
		}
	}
	// Row 0 is the baseline; all variants must be present by name.
	if table.Rows[0][0] != "baseline" {
		t.Fatalf("first row = %v", table.Rows[0])
	}
	// Without level-1 every piece is its own put: more one-sided messages.
	base, noL1 := rep.Rows[0], rep.Rows[1]
	if noL1.Point.(ablationVariant).name != "no level-1 buffer" || noL1.Net.OneSidedMsgs <= base.Net.OneSidedMsgs {
		t.Fatalf("%s: %d one-sided messages, baseline %d",
			noL1.Point.(ablationVariant).name, noL1.Net.OneSidedMsgs, base.Net.OneSidedMsgs)
	}
}

func TestDefaultConfigs(t *testing.T) {
	if s := defaultFig5(); s.LenSims[0] != 4<<20 || paperSizeAccess != 1 || len(paperTypes) != 2 {
		t.Fatalf("defaultFig5 = %+v", s)
	}
	if fsw := defaultFig67(); fsw.Procs[0] != 64 || len(fsw.LenSims) != 4 {
		t.Fatalf("defaultFig67 = %+v", fsw)
	}
	if a := DefaultART(); a.Trees != 1024 || a.Seed != 5 {
		t.Fatalf("DefaultART = %+v", a)
	}
	if ab := defaultAblation(); ab.Procs != 64 {
		t.Fatalf("defaultAblation = %+v", ab)
	}
}

func TestPhaseCellFormatting(t *testing.T) {
	ok := PhaseResult{MBs: 123.45}
	if got := phaseCell(ok); got != "123.5" {
		t.Fatalf("phaseCell = %q", got)
	}
	bad := PhaseResult{Failed: true, FailReason: "out of memory"}
	if got := phaseCell(bad); got != "FAIL (out of memory)" {
		t.Fatalf("phaseCell = %q", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodOCIO.String() != "OCIO" || MethodTCIO.String() != "TCIO" || MethodVanilla.String() != "MPI-IO" {
		t.Fatal("method strings wrong")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatal("unknown method string wrong")
	}
}

func TestCountRegionSkipsExtensions(t *testing.T) {
	src := `
// BEGIN X
a
// BEGIN EXTENSION (excluded)
b
c
// END EXTENSION
d
// END X
e
`
	if got := countRegion(src, "X"); got != 2 {
		t.Fatalf("countRegion = %d, want 2 (a and d)", got)
	}
}
