// Command artbench regenerates the paper's ART cosmology-application
// artifacts: Table IV and Figures 9-10 (checkpoint write and restart read
// throughput, TCIO vs vanilla MPI-IO, strong scaling). Like tciobench it
// runs sweeps declared in internal/bench through the shared runner.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tcio/tcio/internal/bench"
)

func main() {
	cli := bench.Artbench(flag.CommandLine)
	flag.Parse()
	reports, err := cli.Run(os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "artbench:", err)
		os.Exit(1)
	}
	if len(reports) == 0 {
		flag.Usage()
		os.Exit(2)
	}
}
