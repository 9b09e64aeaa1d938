package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestOverloadSweep runs a compressed overload sweep and pins the
// tentpole claims: every offered record is either processed or
// counted shed, shedding only happens when enabled, the flash crowd
// triggers it, and with shedding on the flash-crowd e2e p99 is
// bounded — strictly better than the unprotected collapse.
func TestOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep drives multi-second open-loop load")
	}
	env := NewEnv(tinyScale())
	// The accounting identities are checked strictly on every sweep. The
	// one comparison of two wall-clock tails taken seconds apart gets up
	// to three sweeps: this host stalls for seconds at a time, and a
	// stall inside the shed-on cell alone inverts it.
	const sweeps = 3
	var res *OverloadResult
	for attempt := 1; ; attempt++ {
		var err error
		// The default 4 096 calibration records: half of that, on a cold
		// process, read ≈ 58 k alarms/s where the service sustains ≈ 100 k,
		// and the flash crowd sized from it only just reached the shed
		// bound — or, once the persist stage got cheaper, did not.
		res, err = OverloadWithConfig(env, OverloadConfig{Duration: 1500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		flashOff, flashOn := checkOverloadAccounting(t, res)
		// Bounded p99, no collapse: the shed-on tail must beat the
		// unprotected one, which drains the whole spike backlog late.
		if flashOn.P99 < flashOff.P99 {
			break
		}
		if attempt == sweeps {
			t.Fatalf("shedding did not bound p99 in %d sweeps: shed on %s vs off %s", sweeps, flashOn.P99, flashOff.P99)
		}
		t.Logf("sweep %d: shed on %s vs off %s, sweeping again", attempt, flashOn.P99, flashOff.P99)
	}

	out := RenderOverload(res)
	for _, want := range []string{"Overload sweep", "flash", "burst", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// checkOverloadAccounting fails the test unless every cell of a sweep
// adds up — processed + shed = sent, nothing shed with shedding off, the
// flash crowd did shed — and returns the two flash cells.
func checkOverloadAccounting(t *testing.T, res *OverloadResult) (flashOff, flashOn OverloadCell) {
	t.Helper()
	if res.CapacityPerSec <= 0 || res.BaseRate <= 0 || res.ShedQueue <= 0 {
		t.Fatalf("degenerate calibration: %+v", res)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 3 scenarios × shed on/off", len(res.Cells))
	}
	cells := make(map[string]OverloadCell, len(res.Cells))
	for _, c := range res.Cells {
		key := c.Scenario
		if c.Shed {
			key += "+shed"
		}
		cells[key] = c
		if c.Sent == 0 {
			t.Fatalf("cell %s sent nothing", key)
		}
		if c.Processed+int(c.ShedRecords) != c.Sent {
			t.Fatalf("cell %s: processed %d + shed %d != sent %d",
				key, c.Processed, c.ShedRecords, c.Sent)
		}
		if !c.Shed && c.ShedRecords != 0 {
			t.Fatalf("cell %s shed %d records with shedding off", key, c.ShedRecords)
		}
		if c.Processed > 0 && c.P99 <= 0 {
			t.Fatalf("cell %s has no p99", key)
		}
	}
	flashOff, flashOn = cells["flash"], cells["flash+shed"]
	// The flash spike offers 4× the measured capacity: the bounded
	// queue must actually shed.
	if flashOn.ShedRecords == 0 {
		t.Fatalf("flash crowd shed nothing: %+v", flashOn)
	}
	return flashOff, flashOn
}
