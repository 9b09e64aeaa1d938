package lockscope_test

import (
	"testing"

	"alarmverify/internal/analysis/analysistest"
	"alarmverify/internal/analysis/lockscope"
)

func TestLockscope(t *testing.T) {
	analysistest.Run(t, "testdata", lockscope.Analyzer, "a", "ignored", "good")
}

// TestSeqver holds the guardedby rule to the partition write discipline
// the seqver checker enforced by field and method names before it.
func TestSeqver(t *testing.T) {
	analysistest.Run(t, "testdata/seqver", lockscope.Analyzer, "a", "good")
}
