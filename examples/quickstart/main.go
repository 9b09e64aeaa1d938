// Quickstart: train an alarm verifier on historical alarms and verify
// new ones through the public API, including the "My Security Center"
// routing and the ARC operator queue of §3.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"alarmverify"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	// The synthetic country stands in for the proprietary Sitasys
	// production environment (see DESIGN.md for the substitution).
	world := alarmverify.NewWorld(7)

	fmt.Fprintln(w, "generating 40,000 historical alarms...")
	alarms := alarmverify.GenerateAlarms(world, 40_000)
	train, test := alarms[:20_000], alarms[20_000:]

	fmt.Fprintln(w, "training the verification service (random forest, Table 3 parameters)...")
	cfg := alarmverify.DefaultVerifierConfig()
	verifier, err := alarmverify.Train(train, cfg)
	if err != nil {
		return err
	}
	st := verifier.Stats()
	fmt.Fprintf(w, "trained on %d alarms (%d one-hot features) in %s\n\n",
		st.TrainRecords, st.Features, st.TrainTime.Round(time.Millisecond))

	acc, err := alarmverify.EvaluateAccuracy(verifier, test)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "verification accuracy on %d held-out alarms: %.1f%%\n", len(test), 100*acc)
	fmt.Fprintln(w, "(the paper's >90% needs the full 350K-alarm history; see the")
	fmt.Fprintln(w, " scaling curve in EXPERIMENTS.md — accuracy grows with volume)")
	fmt.Fprintln(w)

	// Verify live alarms and route them; keep going until both routes
	// have been demonstrated.
	policy := alarmverify.DefaultCustomerPolicy()
	queue := alarmverify.NewOperatorQueue()
	fmt.Fprintln(w, "verifying incoming alarms:")
	printed, toARC := 0, 0
	for i := 0; i < len(test) && (printed < 5 || toARC == 0); i += 137 {
		a := test[i]
		v, err := verifier.Verify(&a)
		if err != nil {
			return err
		}
		route := policy.Decide(&a, v)
		if route == alarmverify.RouteToARC {
			queue.Push(a, v)
			toARC++
		}
		if printed < 5 || (route == alarmverify.RouteToARC && toARC == 1) {
			fmt.Fprintf(w, "  alarm %-6d %-10s at %s → %-5s (P(%s)=%.2f) → route: %s\n",
				a.ID, a.Type, a.ZIP, v.Predicted, v.Predicted, v.Probability, route)
			printed++
		}
	}
	fmt.Fprintf(w, "\n%d alarms queued for ARC operators, most urgent first:\n", queue.Len())
	for {
		item, ok := queue.Pop()
		if !ok {
			break
		}
		fmt.Fprintf(w, "  alarm %d (P(true)=%.2f)\n", item.Alarm.ID, item.Verification.Probability)
	}
	return nil
}
