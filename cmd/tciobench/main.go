// Command tciobench regenerates the paper's synthetic-benchmark artifacts
// (Tables I-III and Figures 5-7) and the reproduction's own sweeps. Its
// flags are generated from the sweep table in internal/bench: run it with
// -h for the list. -all runs every sweep, and every sweep named runs;
// -chaos beside -delegate, the sweep with a deterministic projection,
// prints that counts-only table instead; -json FILE collects every sweep's
// rows in one document; -conform runs the randomized differential
// conformance sweep.
//
// Simulated datasets follow the paper (LENarray=4M elements, files up to
// 48 GB); -len-real controls how many elements are actually materialized
// per array (the byte-scale mechanism described in DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tcio/tcio/internal/bench"
	"github.com/tcio/tcio/internal/conformance"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tciobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cli := bench.Tciobench(fs)
	jsonPath := fs.String("json", "", "also write one JSON document to this path: one entry (name, params, rows) per sweep that ran")
	conform := fs.Bool("conform", false, "run the randomized differential conformance sweep (uses -seed, -progs, -corpus)")
	progs := fs.Int("progs", 32, "number of generated programs for -conform")
	corpus := fs.String("corpus", "", "directory receiving shrunk repros of -conform divergences")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *conform {
		failures, err := conformance.RunSweep(stdout, cli.Seed, *progs, *corpus)
		if err != nil {
			fmt.Fprintln(stderr, "tciobench:", err)
		}
		if err != nil || failures > 0 {
			return 1
		}
		return 0
	}
	reports, err := cli.Run(stdout, stderr)
	if err == nil && len(reports) == 0 {
		fs.Usage()
		return 2
	}
	if err == nil && *jsonPath != "" {
		err = bench.WriteJSON(*jsonPath, cli.Options, reports)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tciobench:", err)
		return 1
	}
	return 0
}
