package integration

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests: a `go test -run` alternative that matches
// no test passes without running anything, so a CI step whose test was
// renamed or deleted goes on passing, empty. Every alternative of every
// -run pattern in the CI workflow must match a Test, Fuzz or Example
// function of the repository; the pattern '^$' deliberately selects
// nothing (the fuzz and benchmark steps) and is skipped.
func TestCIRunPatternsSelectTests(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and build caches hold no test of ours
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	runArg := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	checked := 0
	for _, m := range runArg.FindAllStringSubmatch(string(ci), -1) {
		pattern := m[1] + m[2]
		if pattern == "^$" {
			continue
		}
		// Only the top-level test names matter: a subtest level follows '/'.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run %q: alternative %q: %v", pattern, alt, err)
				continue
			}
			checked++
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run %q: alternative %q selects no test", pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run pattern found in ci.yml")
	}
}
