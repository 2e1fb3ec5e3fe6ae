package conformance

// RunSweep is the engine behind `tciobench -conform`: generate and check
// a window of seeded programs, print one deterministic summary line per
// program (CI runs the sweep twice and diffs the output), and on
// divergence shrink to a minimal repro — saving it to the corpus
// directory when one is configured.

import (
	"fmt"
	"io"
)

// shrinkBudget bounds predicate evaluations per divergence; each
// evaluation is three engine runs, so this caps the worst-case cost of a
// failing sweep.
const shrinkBudget = 150

// RunSweep checks programs for seeds [baseSeed, baseSeed+progs) and
// reports the number of divergent programs. corpusDir, when non-empty,
// receives the shrunk repro of every divergence.
func RunSweep(w io.Writer, baseSeed int64, progs int, corpusDir string) (int, error) {
	if progs < 1 {
		return 0, fmt.Errorf("conformance: %d programs", progs)
	}
	failures := 0
	for i := 0; i < progs; i++ {
		seed := baseSeed + int64(i)
		out := Check(Generate(seed))
		fmt.Fprintln(w, out.Summary)
		if !out.Failed() {
			continue
		}
		failures++
		for _, d := range out.Divergences {
			fmt.Fprintf(w, "  divergence: %s\n", d)
		}
		small, stats := Shrink(out.Program, func(cand *Program) bool {
			return Check(cand).Failed()
		}, shrinkBudget)
		wops, rops := small.Ops()
		fmt.Fprintf(w, "  shrunk to %d write ops / %d read ops / %d ranks (%d evals)\n",
			wops, rops, small.Procs, stats.Evals)
		if corpusDir != "" {
			path, err := Save(corpusDir, small)
			if err != nil {
				return failures, fmt.Errorf("saving repro: %w", err)
			}
			fmt.Fprintf(w, "  repro saved: %s\n", path)
		}
	}
	fmt.Fprintf(w, "conform: %d programs, %d divergent\n", progs, failures)
	return failures, nil
}
