package main

import (
	"strings"
	"testing"
)

// TestRun runs the quickstart and checks that it trained on the first
// half of the generated alarms.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trained on 20000 alarms") {
		t.Fatalf("no training line:\n%s", out.String())
	}
}
