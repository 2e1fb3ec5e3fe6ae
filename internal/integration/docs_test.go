package integration

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestChangesLinesStayShort is ROADMAP 7(d)'s check: one line per PR means
// one line. From PR 21 on a CHANGES.md entry is at most 400 characters and
// points at results/prNN.md for the rest; the older entries are history.
func TestChangesLinesStayShort(t *testing.T) {
	blob, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+)`)
	checked := 0
	for i, line := range strings.Split(string(blob), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr < 21 {
			continue
		}
		checked++
		if n := utf8.RuneCountInString(line); n > 400 {
			t.Errorf("CHANGES.md:%d: PR %s's entry is %d characters, limit 400", i+1, m[1], n)
		}
	}
	if checked == 0 {
		t.Fatal("no CHANGES.md entry for PR 21 or later found")
	}
}
