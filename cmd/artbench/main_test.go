package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadTreesIsAnError: a -trees of zero used to print 0.0 MB/s and exit
// 0, and one below zero panicked inside every rank, printed the goroutine
// dumps into the table cells and still exited 0.
func TestBadTreesIsAnError(t *testing.T) {
	for _, trees := range []string{"0", "-3"} {
		var out, errw bytes.Buffer
		code := run([]string{"-fig9", "-trees", trees, "-procs", "4", "-quiet"}, &out, &errw)
		if code == 0 || !strings.Contains(errw.String(), "-trees "+trees) {
			t.Errorf("artbench -trees %s: exit %d, stdout %q, stderr %q; want a non-zero exit naming -trees %s",
				trees, code, out.String(), errw.String(), trees)
		}
	}
}
