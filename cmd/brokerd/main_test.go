package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseOptionsReplInterval pins the heartbeat bound: the leader may
// hold a follower's pull for -repl-interval, so a value that is not
// well below -election-timeout (given or default) is refused at start.
func TestParseOptionsReplInterval(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-repl-interval", "100ms"},
		{"-repl-interval", "1s", "-election-timeout", "3s"},
	} {
		if _, err := parseOptions(args, io.Discard); err != nil {
			t.Errorf("args %v refused: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-repl-interval", "400ms"},
		{"-election-timeout", "8ms"},
		{"-repl-interval", "1s", "-election-timeout", "2s"},
	} {
		_, err := parseOptions(args, io.Discard)
		if err == nil {
			t.Errorf("args %v accepted, want error", args)
		} else if !strings.Contains(err.Error(), "ReplInterval") {
			t.Errorf("args %v: error %q does not name the interval", args, err)
		}
	}
}
