// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all            # everything, small scale
//	experiments -exp fig9 -scale medium
//	experiments -exp table9 -runs 10 -scale paper
//
// Experiment ids follow the paper: table1, table2, table8, table9,
// params (tables 3-7), fig6, fig7, fig8, fig9, fig10, fig11, fig12,
// corpus (§5.2 statistics), grid (§5.3.2 methodology), e2e (§5.5),
// scaling (RF accuracy vs training volume), drift (model-lifecycle
// drift recovery: feedback → retrain → shadow eval → hot swap),
// overload (scenario sweep × load shedding: e2e latency quantiles
// under steady, burst and flash-crowd arrivals), durability (WAL-on
// vs memory-only service throughput plus crash-style recovery replay),
// ablation (§6.2 cached vs uncached batch time and §5.1.1 true-alarm
// rate per Δt).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"alarmverify/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (or comma list): all, table1, table2, table8, table9, params, fig6, fig7, fig8, fig9, fig10, fig11, fig12, corpus, grid, e2e, scaling, drift, overload, durability, ablation")
	scaleName := flag.String("scale", "small", "dataset scale: small, medium, paper")
	runs := flag.Int("runs", 3, "averaging runs for table9 (paper uses 10)")
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env := experiments.NewEnv(scale)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "params", "corpus", "fig6", "fig7", "fig8",
			"table2", "fig9", "fig10", "table8", "table9", "fig11", "fig12", "e2e", "scaling", "drift", "overload", "durability", "ablation"}
	}
	for _, id := range ids {
		if err := run(env, strings.TrimSpace(id), *runs); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func run(env *experiments.Env, id string, runs int) error {
	start := time.Now()
	defer func() {
		fmt.Printf("[%s: %s, scale=%s]\n\n", id, time.Since(start).Round(time.Millisecond), env.Scale.Name)
	}()
	switch id {
	case "table1":
		fmt.Println(experiments.Table1())
	case "params":
		fmt.Println(experiments.Params())
	case "corpus":
		fmt.Println(experiments.RenderCorpusStats(experiments.CorpusStats(env)))
	case "fig6":
		perYear, ratio := experiments.Fig6(env)
		fmt.Println(experiments.RenderFig6(perYear, ratio))
	case "fig7":
		fmt.Println(experiments.RenderFig7(experiments.Fig7(env, 12, time.Minute)))
	case "fig8":
		fmt.Println(experiments.Fig8(env, 72, 20))
	case "table2":
		res, err := experiments.Table2(env, time.Minute)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(res))
	case "fig9":
		results, err := experiments.Fig9(env, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(results))
	case "fig10", "table8":
		results, err := experiments.Fig10AndTable8(env)
		if err != nil {
			return err
		}
		if id == "fig10" {
			fmt.Println(experiments.RenderFig10(results))
		} else {
			fmt.Println(experiments.RenderTable8(results))
		}
	case "table9":
		rows, err := experiments.Table9(env, runs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable9(rows))
	case "fig11":
		results, err := experiments.Fig11(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig11(results))
	case "fig12":
		res, err := experiments.Fig12(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig12(res))
	case "e2e":
		results, err := experiments.EndToEnd(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderEndToEnd(results))
	case "scaling":
		points, err := experiments.ScalingCurve(env, []int{5_000, 10_000, 20_000, env.Scale.SitasysAlarms})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderScalingCurve(points))
	case "drift":
		res, err := experiments.DriftRecovery(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderDriftRecovery(res))
	case "overload":
		res, err := experiments.Overload(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderOverload(res))
	case "durability":
		res, err := experiments.Durability(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderDurability(res))
	case "ablation":
		cached, uncached, err := experiments.AblationCache(env)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: caching the decoded stream (§6.2), one replay batch:")
		fmt.Printf("  cached   : %8.1f ms\n", cached.Seconds()*1000)
		fmt.Printf("  uncached : %8.1f ms\n", uncached.Seconds()*1000)
		deltas := []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute, 10 * time.Minute}
		rates := experiments.AblationDeltaTBalance(env, deltas)
		fmt.Println("Ablation: true-alarm rate per Δt label threshold (§5.1.1):")
		for _, dt := range deltas {
			fmt.Printf("  Δt=%-5s  true-alarm rate=%.4f\n", dt, rates[dt])
		}
		fmt.Println()
	case "grid":
		results, err := experiments.GridSearchDemo(env)
		if err != nil {
			return err
		}
		fmt.Println("Grid search (§5.3.2 methodology), best first:")
		for _, r := range results {
			fmt.Printf("  trees=%2.0f depth=%2.0f  cv-accuracy=%.4f\n",
				r.Point["trees"], r.Point["depth"], r.Score)
		}
		fmt.Println()
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}
