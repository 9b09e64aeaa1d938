// Hybrid approach: the full Figure 5 pipeline — collect multilingual
// incident reports, filter by topic, annotate language/date/location,
// derive per-location a-priori risk factors, and fold them into the
// verifier as an extra feature (§5.4 / Table 9).
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"alarmverify"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	world := alarmverify.NewWorld(42)

	// 1. Collect and process external reports (Figure 5).
	cfg := dataset.DefaultIncidentConfig()
	cfg.NumReports = 5_056 // the paper's corpus size
	fmt.Fprintf(w, "collecting %d raw reports (plus noise) from synthetic Twitter/RSS/web sources...\n",
		cfg.NumReports)
	raw := dataset.GenerateIncidentReports(world, cfg)
	pipeline := textproc.NewPipeline(world.Gaz.Names())
	incidents, stats := pipeline.Process(raw)
	fmt.Fprintf(w, "pipeline: %d collected → %d relevant → %d annotated incidents\n",
		stats.Collected, stats.Relevant, len(incidents))

	langs := map[textproc.Language]int{}
	locations := map[string]bool{}
	for _, inc := range incidents {
		langs[inc.Language]++
		locations[inc.Location] = true
	}
	fmt.Fprintf(w, "languages: %d de / %d fr / %d en (paper: 2,743 / 1,516 / 797)\n",
		langs[textproc.German], langs[textproc.French], langs[textproc.English])
	fmt.Fprintf(w, "distinct locations: %d (paper: 1,027)\n\n", len(locations))

	// 2. Build the risk model and show a corner of the security map.
	model := risk.BuildModel(world.Gaz, incidents)
	fmt.Fprint(w, risk.SecurityMap{Width: 64, Height: 14}.Render(model))

	// 3. Train with and without the risk feature on the covered
	// fire/intrusion alarms (Table 9 scenario (d) spirit).
	fmt.Fprintln(w, "\ngenerating alarms and comparing baseline vs risk-enriched training...")
	alarms := alarmverify.GenerateAlarms(world, 60_000)
	var covered []alarmverify.Alarm
	for _, a := range alarms {
		if model.Covered(a.ZIP) && (a.Type.String() == "fire" || a.Type.String() == "intrusion") {
			covered = append(covered, a)
		}
	}
	fmt.Fprintf(w, "%d fire/intrusion alarms in covered locations\n", len(covered))
	split := len(covered) / 2

	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 30
	rfCfg.MaxDepth = 20

	for _, treatment := range []struct {
		name string
		kind risk.Kind
		use  bool
	}{
		{"baseline (no risk factor)", 0, false},
		{"ARF (absolute risk)", alarmverify.AbsoluteRisk, true},
		{"NRF (normalized risk)", alarmverify.NormalizedRisk, true},
		{"BRF (binary risk)", alarmverify.BinaryRisk, true},
	} {
		vcfg := alarmverify.DefaultVerifierConfig()
		vcfg.Classifier = ml.NewRandomForest(rfCfg)
		if treatment.use {
			vcfg.Risk = model
			vcfg.RiskKind = treatment.kind
		}
		start := time.Now()
		verifier, err := alarmverify.Train(covered[:split], vcfg)
		if err != nil {
			return err
		}
		acc, err := alarmverify.EvaluateAccuracy(verifier, covered[split:])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s accuracy=%.2f%%  (%s)\n",
			treatment.name, 100*acc, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(w, "\npaper's Table 9 (scenario d): baseline 86.56% → up to 87.56% with risk factors")
	return nil
}
