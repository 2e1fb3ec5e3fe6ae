package bench

import (
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/pfs"
)

// drainRun executes the TCIO write phase on a file striped over seven OSTs
// at the given drain fan-out and returns the phase result. The stripe
// width is coprime to the process count so each rank's segments spread
// over every OST (see synthGeometry.StripeCount).
func drainRun(t *testing.T, workers int) PhaseResult {
	t.Helper()
	env, err := NewEnv(256)
	if err != nil {
		t.Fatal(err)
	}
	fscfg := env.FS.Config()
	fscfg.StripeCount = 7
	env.FS = pfs.New(fscfg)
	cfg := SyntheticConfig{
		Method:       MethodTCIO,
		Procs:        8,
		TypeArray:    []datatype.Type{datatype.Int, datatype.Double},
		LenArray:     4 << 10,
		SizeAccess:   1,
		Verify:       true,
		FileName:     "drainsweep-test",
		DrainWorkers: workers,
	}
	pr := runPhase(env, cfg, true)
	if pr.Failed {
		t.Fatalf("workers=%d write failed: %s", workers, pr.FailReason)
	}
	return pr
}

// TestDrainWorkersCutWriteTime pins the headline claim of the drain
// fan-out: on a multi-OST stripe, draining with several workers finishes
// in less virtual time than the serial drain, while issuing exactly the
// same file system requests.
func TestDrainWorkersCutWriteTime(t *testing.T) {
	serial := drainRun(t, 1)
	parallel := drainRun(t, 4)
	if parallel.Time >= serial.Time {
		t.Fatalf("workers=4 write time %v not below workers=1 %v", parallel.Time, serial.Time)
	}
	if parallel.FS.Writes != serial.FS.Writes {
		t.Fatalf("fan-out changed the request stream: %d writes vs %d",
			parallel.FS.Writes, serial.FS.Writes)
	}
	if parallel.SimBytes != serial.SimBytes {
		t.Fatalf("fan-out changed the byte count: %d vs %d", parallel.SimBytes, serial.SimBytes)
	}
}

// TestDrainSweepTable runs the sweep end to end and checks every row
// verified clean.
func TestDrainSweepTable(t *testing.T) {
	opts := defaultDrainSweep()
	opts.Procs = 8
	opts.Fanouts = []int{1, 4}
	opts.LenSim = 1 << 20
	rep, err := Run(drainSweep(opts), Options{LenReal: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables(nil)[0]
	if len(tbl.Rows) != len(opts.Fanouts) {
		t.Fatalf("%d rows for %d worker settings", len(tbl.Rows), len(opts.Fanouts))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v did not verify", row)
		}
	}
}
