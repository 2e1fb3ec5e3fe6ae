package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tciobench runs the command line in-process.
func tciobench(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestBadLenRealIsAnError: a -len-real of zero used to panic with an
// integer divide by zero, and one that does not divide the simulated
// LENarray silently truncated the byte scale. -tables printed Table II
// with whatever -len-real it was given.
func TestBadLenRealIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-fig5", "-len-real", "0"},
		{"-ablations", "-len-real", "0"},
		{"-tables", "-len-real", "0"},
		{"-tables", "-len-real", "-5"},
		{"-tables", "-len-real", "3"},
	} {
		code, _, stderr := tciobench(append(args, "-quiet")...)
		if code != 1 || !strings.Contains(stderr, "len-real") {
			t.Errorf("tciobench %v: exit %d, stderr %q; want exit 1 naming len-real", args, code, stderr)
		}
	}
}

// document is the -json output.
type document struct {
	Sweeps []struct {
		Name string
		Rows []map[string]any
	}
}

func readJSON(t *testing.T, args ...string) document {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	if code, _, stderr := tciobench(append(args, "-quiet", "-json", path)...); code != 0 {
		t.Fatalf("tciobench %v: exit %d: %s", args, code, stderr)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBadCountIsAnError: a -chaos-procs of zero or below used to exit 0
// with every row failed, and -conform -progs of zero or below reported
// success with nothing checked.
func TestBadCountIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "-chaos-procs", "0"},
		{"-chaos", "-chaos-procs", "-3"},
		{"-conform", "-progs", "0"},
		{"-conform", "-progs", "-5"},
	} {
		code, stdout, stderr := tciobench(append(args, "-quiet")...)
		if code == 0 || !strings.Contains(stderr, args[2]) {
			t.Errorf("tciobench %v: exit %d, stdout %q, stderr %q; want a non-zero exit naming %s",
				args, code, stdout, stderr, args[2])
		}
	}
}

// TestJSONKeepsEverySweep: each sweep used to overwrite the -json file, so
// only the last one's report survived.
func TestJSONKeepsEverySweep(t *testing.T) {
	doc := readJSON(t, "-ablations", "-delegate-read", "-len-real", "512")
	if len(doc.Sweeps) != 2 || doc.Sweeps[0].Name != "ablations" || doc.Sweeps[1].Name != "delegate-read" {
		t.Fatalf("entries: %+v", doc.Sweeps)
	}
	// Each sweep's rows carry its own table's columns.
	key := map[string]string{"ablations": "one_sided_msgs", "delegate-read": "fs_reads_cold"}
	for _, s := range doc.Sweeps {
		if len(s.Rows) == 0 || s.Rows[0][key[s.Name]] == nil {
			t.Errorf("%s: rows %+v", s.Name, s.Rows)
		}
	}
}

// TestJSONDelegateRead: -delegate-read -json used to write nothing.
func TestJSONDelegateRead(t *testing.T) {
	doc := readJSON(t, "-delegate-read")
	if len(doc.Sweeps) != 1 || len(doc.Sweeps[0].Rows) != 4 || doc.Sweeps[0].Rows[0]["fs_reads_cold"] == nil {
		t.Fatalf("entries: %+v", doc.Sweeps)
	}
}

// TestCombinationsRunEverySweep: two sweeps used to return early, so together
// only the first ran. -delegate-read, named without -delegate, runs alone.
func TestCombinationsRunEverySweep(t *testing.T) {
	code, stdout, stderr := tciobench("-tables", "-delegate-read", "-quiet")
	if code != 0 || !strings.Contains(stdout, "Table III:") || !strings.Contains(stdout, "Delegated reads:") ||
		strings.Contains(stdout, "I/O delegation:") {
		t.Errorf("exit %d\n%s%s", code, stdout, stderr)
	}
	if code, _, stderr := tciobench(); code != 2 || !strings.Contains(stderr, "[also runs after a clean -delegate]") {
		t.Errorf("no sweep named: exit %d, usage %q", code, stderr)
	}
}
