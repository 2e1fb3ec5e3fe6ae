package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckSourceFlagsGlobalCalls(t *testing.T) {
	src := []byte(`package p

import "math/rand"

func helper() int {
	rand.Seed(42)
	return rand.Intn(10) + int(rand.Int63())
}
`)
	got, err := CheckSource("x_test.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("violations = %d, want 3: %v", len(got), got)
	}
	for _, v := range got {
		if !strings.Contains(v, "x_test.go") {
			t.Fatalf("violation missing filename: %s", v)
		}
	}
}

func TestCheckSourceAllowsSeededGenerator(t *testing.T) {
	src := []byte(`package p

import "math/rand"

func helper() int {
	rng := rand.New(rand.NewSource(1))
	return rng.Intn(10)
}
`)
	got, err := CheckSource("x_test.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestCheckSourceAllowsShadowedName(t *testing.T) {
	src := []byte(`package p

type gen struct{}

func (gen) Intn(int) int { return 0 }

func helper() int {
	var rand gen
	return rand.Intn(10)
}
`)
	got, err := CheckSource("x_test.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("false positives on shadowed name: %v", got)
	}
}

func TestCheckSourceHandlesAlias(t *testing.T) {
	src := []byte(`package p

import mrand "math/rand"

func helper() int { return mrand.Intn(10) }
`)
	got, err := CheckSource("x_test.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(got), got)
	}
}

// TestRepoIsClean runs the checker over the repository itself: the seed
// audit this command exists to enforce.
func TestRepoIsClean(t *testing.T) {
	got, err := Check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("repository tests draw from the global generator:\n%s", strings.Join(got, "\n"))
	}
}

// TestCheckWalksSubdirectories: one run from the root covers every package —
// a violation two directories down is reported, testdata and dot
// directories are skipped — so CI audits the tree with a single call.
func TestCheckWalksSubdirectories(t *testing.T) {
	root := t.TempDir()
	bad := []byte("package p\n\nimport \"math/rand\"\n\nvar x = rand.Intn(3)\n")
	for _, rel := range []string{"a/b/deep_test.go", "a/testdata/skipped_test.go", ".hidden/skipped_test.go"} {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0], filepath.Join("a", "b", "deep_test.go")) {
		t.Fatalf("violations = %v, want exactly the one in a/b/deep_test.go", got)
	}
}
