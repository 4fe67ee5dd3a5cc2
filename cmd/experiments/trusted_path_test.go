package main

import (
	"path/filepath"
	"testing"
)

// trustedPathBudget is the size of the default verify path, in e7's
// code lines (non-blank, non-comment), as last measured.
const trustedPathBudget = 1884

// TestTrustedPathBudget gates the trusted code e7 counts: the files
// the default NewChecker + Verify path executes may not grow past
// trustedPathBudget. The count is deterministic, so unlike the timing
// series it is a plain test rather than a trend.
func TestTrustedPathBudget(t *testing.T) {
	root := findModuleRoot()
	if root == "" {
		t.Fatal("module root not found")
	}
	total := 0
	for _, f := range defaultPathFiles {
		n := countCodeLines(filepath.Join(root, f))
		if n == 0 {
			t.Fatalf("%s is missing or empty: keep defaultPathFiles in step with the default verify path", f)
		}
		total += n
	}
	if total > trustedPathBudget {
		t.Errorf("default verify path is %d code lines, over its budget of %d: the trusted path grows only for a measured reason recorded in CHANGES.md, and that change raises trustedPathBudget",
			total, trustedPathBudget)
	}
}
