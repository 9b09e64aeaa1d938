package main

import (
	"strings"
	"testing"
)

// TestRun runs the streaming example and checks that the replay
// consumer verified every replayed alarm in each of the three
// configurations.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "(40000 alarms in "); n != 3 {
		t.Fatalf("%d configurations verified all 40000 alarms, want 3:\n%s", n, out.String())
	}
}
