package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadRun(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run runResult
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &run, nil
}

// verdict judges one end-to-end metric of one workload, b against a:
// unresolved when either side's own interquartile spread exceeds the
// bound (the instrument cannot see a change that small, so it must not
// say "unchanged"), regressed when b's median is worse than a's by more
// than the bound, ok otherwise.
func verdict(a, b e2eValue, bound float64) string {
	if a.N == 0 || b.N == 0 {
		return "missing"
	}
	if a.spread() > bound || b.spread() > bound {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload, one row per end-to-end metric with
// both medians, quartiles, the bound and a verdict. It reports whether any
// row regressed, any operation failed, or a side lacks a row.
func compareFiles(w io.Writer, c *contract, pathA, pathB string) (bool, error) {
	a, err := loadRun(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRun(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "a: %s (seed %d, %s, GOMAXPROCS %d)\nb: %s (seed %d, %s, GOMAXPROCS %d)\n",
		pathA, a.Seed, a.GoVersion, a.GoMaxProcs, pathB, b.Seed, b.GoVersion, b.GoMaxProcs)
	bad := false
	counts := map[string]int{}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s == missing from b\n", ra.Name)
			bad = true
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", ra.Name)
		fmt.Fprintf(w, "%-16s %-5s %-7s %12s %-25s %12s %-25s %8s %6s  %s\n",
			"metric", "unit", "better", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "b vs a", "bound", "verdict")
		for _, m := range endToEnd {
			bound, ok := c.bound(m.name)
			if !ok {
				return false, fmt.Errorf("the contract has no bound for %s", m.name)
			}
			va, vb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			v := verdict(va, vb, bound)
			counts[v]++
			if v == "regressed" || v == "missing" {
				bad = true
			}
			quart := func(e e2eValue) string { return fmt.Sprintf("[%.5g, %.5g] %d", e.Q1, e.Q3, e.N) }
			fmt.Fprintf(w, "%-16s %-5s %-7s %12.6g %-25s %12.6g %-25s %+7.2f%% %5.0f%%  %s\n",
				m.name, m.unit, m.better, va.Median, quart(va), vb.Median, quart(vb),
				100*ratio(vb.Median-va.Median, va.Median), 100*bound, v)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "fail_share: a %d of %d, b %d of %d operations failed (bound 0)  regressed\n",
				ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad = true
		} else {
			fmt.Fprintf(w, "fail_share: 0 on both sides  ok\n")
		}
		if len(ra.VirtualNs) > 0 && len(rb.VirtualNs) > 0 {
			same := "repeat exactly"
			for _, v := range append(append([]int64(nil), ra.VirtualNs...), rb.VirtualNs...) {
				if v != ra.VirtualNs[0] {
					same = "differ"
				}
			}
			fmt.Fprintf(w, "info (simulated): virtual makespans across both sides' reps %s (a first rep %d ns, b first rep %d ns)\n", same, ra.VirtualNs[0], rb.VirtualNs[0])
		}
	}
	fmt.Fprintf(w, "\nverdicts: %d ok, %d unresolved, %d regressed, %d missing\n",
		counts["ok"], counts["unresolved"], counts["regressed"], counts["missing"])
	return bad, nil
}
