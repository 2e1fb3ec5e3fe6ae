package bench

import "testing"

func testCrashGeometry() *crashGeometry {
	g := defaultCrash()
	g.Kills = 4
	return g
}

// TestCrashSweepOutcomes pins the headline claim of the -crash sweep: the
// journaled run seals every epoch it appends and survives all of its
// kill-replay-recover cycles.
func TestCrashSweepOutcomes(t *testing.T) {
	rep, err := Run(crashSweep(testCrashGeometry()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	p := row.Point.(crashPoint)
	if row.Result != "ok" || p.KillsOK != p.Kills {
		t.Errorf("crash point: %s (%d/%d kills ok)", row.Result, p.KillsOK, p.Kills)
	}
	if row.TCIO.JournalEpochs == 0 || row.TCIO.JournalCommits != row.TCIO.JournalEpochs {
		t.Errorf("crash point: %d commits for %d epochs", row.TCIO.JournalCommits, row.TCIO.JournalEpochs)
	}
}
