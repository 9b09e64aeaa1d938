package main

import (
	"strings"
	"testing"
)

// TestRun runs the hybrid example and checks that all four treatments,
// the baseline and the three risk kinds, report an accuracy.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "accuracy="); n != 4 {
		t.Fatalf("%d accuracy lines, want 4:\n%s", n, out.String())
	}
}
