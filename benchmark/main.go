// Command benchmark is the repo's measuring instrument: six frozen
// workloads, end-to-end metrics in simulated time (what the modelled
// cluster would take) and host time (what this Go process costs), and a
// traced run that attributes them to layers from outside the layers.
// See README.md for every workload, metric and bound.
//
// Usage (from this directory):
//
//	go run . -workload all                       # end-to-end numbers
//	go run . -workload synth-tcio -trace 1       # plus the per-layer table
//	go run . -json out/run.json                  # machine-readable results
//	go run . -compare baseline/seed5.json out/run.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// pinnedProcs is the GOMAXPROCS every run uses (the sandbox's core count),
// so host numbers from different machines at least share a scheduler shape.
const pinnedProcs = 2

func main() {
	// testing.Init registers the -test.* flags the micro-benchmarks'
	// testing.Benchmark reads; runMicros shortens -test.benchtime.
	testing.Init()
	var (
		workload = flag.String("workload", "all", "workload `name`, or all")
		seed     = flag.Int64("seed", 5, "input seed (5 is Table IV's); drives bytes and tree contents, never geometry")
		seconds  = flag.Float64("seconds", 10, "timed measuring window per workload")
		trace    = flag.Int("trace", 0, "1 adds a traced rep and micro-benchmarks and prints per-layer metrics")
		jsonOut  = flag.String("json", "", "write the full results to this `file`")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		contract = flag.String("contract", "../BENCHMARK.json", "the `file` naming the metrics that must be emitted, and their bounds")
		outDir   = flag.String("out", "out", "`directory` for trace files")
	)
	flag.Parse()

	c, err := loadContract(*contract)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, c, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if d, ok := findWorkload(*workload); ok {
		defs = []workloadDef{d}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	runtime.GOMAXPROCS(pinnedProcs)
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	run := newRunResult(opt)
	for _, d := range defs {
		res, err := runWorkload(d, opt)
		if err != nil {
			fatal(err)
		}
		run.Workloads = append(run.Workloads, res)
		res.print(os.Stdout)
	}
	run.printRatios(os.Stdout)
	if opt.trace {
		if err := run.addMicros(os.Stdout, microBenchtime); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := run.writeJSON(*jsonOut); err != nil {
			fatal(err)
		}
	}
	// The summary line comes last; a failed operation or a named metric
	// that was not emitted makes the command fail after printing it.
	line, problems := run.contractLine(c)
	fmt.Printf("\n%s\n", line)
	if len(problems) > 0 {
		fatal(fmt.Errorf("%d problem(s): %v", len(problems), problems))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
