package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs replays the tciobench invocations whose output is
// byte-identical run to run and compares each with the output captured at
// the commit before the sweeps moved onto the shared runner. It is not
// skipped under -short: the -race leg must run it.
func TestGoldenOutputs(t *testing.T) {
	for file, args := range map[string]string{
		"chaos.txt":  "-chaos -seed 7 -chaos-procs 16",
		"tables.txt": "-tables",
	} {
		t.Run(file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", file))
			if err != nil {
				t.Fatal(err)
			}
			fs := flag.NewFlagSet("tciobench", flag.ContinueOnError)
			cli := Tciobench(fs)
			if err := fs.Parse(strings.Fields(args + " -quiet")); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := cli.Run(&got, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("tciobench %s:\n%s\nwant:\n%s", args, got.Bytes(), want)
			}
		})
	}
}

// TestRunnerRejects covers the runner's own check: a byte scale that is
// zero or truncating.
func TestRunnerRejects(t *testing.T) {
	fig5 := fig5Sweep(&figGeometry{Procs: []int{2}, LenSims: []int{1 << 10}})
	for _, lenReal := range []int{0, -4, 3} {
		if _, err := Run(fig5, Options{LenReal: lenReal}); err == nil {
			t.Errorf("len-real %d against LENarray 1024 accepted", lenReal)
		}
	}
}
