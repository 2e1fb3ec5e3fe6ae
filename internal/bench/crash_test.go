package bench

import (
	"strings"
	"testing"
)

func testCrashGeometry() *crashGeometry {
	g := defaultCrash()
	g.Kills = 4
	return g
}

// TestCrashSweepOutcomes pins the headline claims of the -crash sweep: the
// unbudgeted out-of-core point OOMs with the typed error, every budgeted
// point completes byte-exactly with the tightest budget actually spilling,
// and every crash point survives all of its kill-replay-recover cycles.
func TestCrashSweepOutcomes(t *testing.T) {
	rep, err := Run(crashSweep(testCrashGeometry()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 { // 3 budgets x 2 experiments
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		p := row.Point.(crashPoint)
		switch {
		case !p.Kill && p.BudgetSegs == 0:
			if !strings.HasPrefix(row.Result, "OOM") {
				t.Errorf("unbudgeted out-of-core point: got %q, want OOM", row.Result)
			}
		case !p.Kill:
			if row.Result != "ok" {
				t.Errorf("budget %d out-of-core point: %s", p.BudgetSegs, row.Result)
			}
			if p.BudgetSegs == 2 && row.TCIO.SpillSegments == 0 {
				t.Errorf("tightest budget never spilled; the demo shows nothing")
			}
		case p.Kill:
			if row.Result != "ok" || p.KillsOK != p.Kills {
				t.Errorf("crash point budget %d: %s (%d/%d kills ok)",
					p.BudgetSegs, row.Result, p.KillsOK, p.Kills)
			}
			if row.TCIO.JournalCommits != row.TCIO.JournalEpochs {
				t.Errorf("crash point budget %d: %d commits for %d epochs",
					p.BudgetSegs, row.TCIO.JournalCommits, row.TCIO.JournalEpochs)
			}
		}
	}
}
