// Command artbench regenerates the paper's ART cosmology-application
// artifacts: Table IV and Figures 9-10 (checkpoint write and restart read
// throughput, TCIO vs vanilla MPI-IO, strong scaling). Like tciobench it
// runs sweeps declared in internal/bench through the shared runner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tcio/tcio/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("artbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cli := bench.Artbench(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reports, err := cli.Run(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "artbench:", err)
		return 1
	}
	if len(reports) == 0 {
		fs.Usage()
		return 2
	}
	return 0
}
