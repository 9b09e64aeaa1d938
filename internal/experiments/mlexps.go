package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
)

// rowSet is a labelled set the way the service holds one: serving rows
// of an encoder's layout and a label per row.
type rowSet struct {
	l    *ml.RowLayout
	rows *ml.SparseRows
	y    []int
}

// encode encodes labelled alarms into a rowSet (dataset.Encode).
func encode(labeled []alarm.LabeledAlarm) (rowSet, error) {
	l, rows, y, err := dataset.Encode(labeled)
	return rowSet{l, rows, y}, err
}

// subset returns the rows idx names, in that order.
func (s rowSet) subset(idx []int) rowSet {
	y := make([]int, len(idx))
	for i, id := range idx {
		y[i] = s.y[id]
	}
	return rowSet{s.l, s.rows.Gather(idx), y}
}

// split shuffles the rows with a seeded RNG and gives trainFrac of them
// (at least one, never all) to train and the rest to test. The paper
// uses a 50/50 split (§5.1.1).
func (s rowSet) split(trainFrac float64, seed int64) (train, test rowSet) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(s.y))
	n := min(max(int(float64(len(s.y))*trainFrac), 1), len(s.y)-1)
	return s.subset(idx[:n]), s.subset(idx[n:])
}

// fit fits c on s.
func (s rowSet) fit(c ml.Classifier) error { return c.Fit(s.l, s.rows, s.y) }

// accuracy scores c on s.
func (s rowSet) accuracy(c ml.Classifier) (float64, error) {
	cm, err := ml.Evaluate(c, s.l, s.rows, s.y)
	return cm.Accuracy(), err
}

// Fig9Result is one accuracy measurement of Figure 9: verification
// accuracy as a function of the Δt label threshold, per algorithm.
type Fig9Result struct {
	DeltaT    time.Duration
	Algorithm core.Algorithm
	Accuracy  float64
}

// Fig9 reproduces Figure 9 (accuracy vs Δt on the Sitasys dataset).
// deltas defaults to {1, 2, 4, 6, 8, 10} minutes.
func Fig9(env *Env, deltas []time.Duration) ([]Fig9Result, error) {
	if len(deltas) == 0 {
		deltas = []time.Duration{
			1 * time.Minute, 2 * time.Minute, 4 * time.Minute,
			6 * time.Minute, 8 * time.Minute, 10 * time.Minute,
		}
	}
	alarms := env.Alarms()
	var out []Fig9Result
	for _, dt := range deltas {
		ds, err := encode(dataset.ToLabeled(alarms, dt))
		if err != nil {
			return nil, err
		}
		train, test := ds.split(0.5, 17)
		for _, algo := range core.Algorithms() {
			c, err := ClassifierFor(algo, env.Scale)
			if err != nil {
				return nil, err
			}
			if err := train.fit(c); err != nil {
				return nil, err
			}
			acc, err := test.accuracy(c)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Result{DeltaT: dt, Algorithm: algo, Accuracy: acc})
		}
	}
	return out, nil
}

// RenderFig9 formats Figure 9 as a Δt × algorithm accuracy table.
func RenderFig9(results []Fig9Result) string {
	header := []string{"delta_t"}
	for _, a := range core.Algorithms() {
		header = append(header, string(a))
	}
	byDelta := map[time.Duration]map[core.Algorithm]float64{}
	var order []time.Duration
	for _, r := range results {
		m, ok := byDelta[r.DeltaT]
		if !ok {
			m = map[core.Algorithm]float64{}
			byDelta[r.DeltaT] = m
			order = append(order, r.DeltaT)
		}
		m[r.Algorithm] = r.Accuracy
	}
	var rows [][]string
	for _, dt := range order {
		row := []string{dt.String()}
		for _, a := range core.Algorithms() {
			row = append(row, pct(byDelta[dt][a]))
		}
		rows = append(rows, row)
	}
	return "Figure 9: verification accuracy [%] vs delta_t (Sitasys)\n" +
		renderTable(header, rows)
}

// DatasetName identifies the three evaluation datasets.
type DatasetName string

// The three datasets of Figure 10 / Table 8.
const (
	Sitasys      DatasetName = "sitasys"
	LondonFire   DatasetName = "lfb"
	SanFrancisco DatasetName = "sf"
)

// DatasetNames lists them in the paper's order.
func DatasetNames() []DatasetName { return []DatasetName{Sitasys, LondonFire, SanFrancisco} }

// buildDataset encodes one of the three datasets into serving rows.
func buildDataset(env *Env, name DatasetName) (rowSet, error) {
	switch name {
	case Sitasys:
		return encode(dataset.ToLabeled(env.Alarms(), time.Minute))
	case LondonFire:
		cfg := dataset.DefaultLFBConfig()
		cfg.NumIncidents = env.Scale.LFBIncidents
		return encode(dataset.LFBToLabeled(dataset.GenerateLFB(cfg)))
	case SanFrancisco:
		cfg := dataset.DefaultSFConfig()
		cfg.TotalRecords = env.Scale.SFRecords
		usable := dataset.SFUsable(dataset.GenerateSF(cfg))
		if len(usable) == 0 {
			return rowSet{}, fmt.Errorf("experiments: SF usable subset empty")
		}
		return encode(dataset.SFToLabeled(usable))
	default:
		return rowSet{}, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// Fig10Result is one cell of Figure 10 and (timing-wise) Table 8.
type Fig10Result struct {
	Dataset   DatasetName
	Algorithm core.Algorithm
	Accuracy  float64
	TrainTime time.Duration
	TrainRows int
}

// Fig10AndTable8 reproduces Figure 10 (accuracy per algorithm per
// dataset) and Table 8 (training times) in one pass, since both need
// the same twelve model fits.
func Fig10AndTable8(env *Env) ([]Fig10Result, error) {
	var out []Fig10Result
	for _, name := range DatasetNames() {
		ds, err := buildDataset(env, name)
		if err != nil {
			return nil, err
		}
		train, test := ds.split(0.5, 23)
		for _, algo := range core.Algorithms() {
			c, err := ClassifierFor(algo, env.Scale)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := train.fit(c); err != nil {
				return nil, err
			}
			took := time.Since(start)
			acc, err := test.accuracy(c)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig10Result{
				Dataset:   name,
				Algorithm: algo,
				Accuracy:  acc,
				TrainTime: took,
				TrainRows: len(train.y),
			})
		}
	}
	return out, nil
}

// RenderFig10 formats the accuracy comparison.
func RenderFig10(results []Fig10Result) string {
	header := []string{"algorithm"}
	for _, d := range DatasetNames() {
		header = append(header, string(d))
	}
	var rows [][]string
	for _, a := range core.Algorithms() {
		row := []string{string(a)}
		for _, d := range DatasetNames() {
			for _, r := range results {
				if r.Dataset == d && r.Algorithm == a {
					row = append(row, pct(r.Accuracy))
				}
			}
		}
		rows = append(rows, row)
	}
	return "Figure 10: verification accuracy [%] per algorithm and dataset\n" +
		renderTable(header, rows)
}

// RenderTable8 formats the training-time comparison.
func RenderTable8(results []Fig10Result) string {
	header := []string{"algorithm"}
	for _, d := range DatasetNames() {
		header = append(header, string(d))
	}
	var rows [][]string
	for _, a := range core.Algorithms() {
		row := []string{string(a)}
		for _, d := range DatasetNames() {
			for _, r := range results {
				if r.Dataset == d && r.Algorithm == a {
					row = append(row, fmtDur(r.TrainTime))
				}
			}
		}
		rows = append(rows, row)
	}
	return "Table 8: training time per algorithm and dataset\n" +
		renderTable(header, rows)
}

// GridSearchDemo reproduces the §5.3.2 tuning methodology on the
// Sitasys data: a grid over forest size and depth, scored by 3-fold
// cross-validation. It returns results best-first.
func GridSearchDemo(env *Env) ([]ml.GridResult, error) {
	ds, err := encode(dataset.ToLabeled(env.Alarms(), time.Minute))
	if err != nil {
		return nil, err
	}
	// Subsample so the grid stays affordable.
	if len(ds.y) > 8000 {
		ds = ds.subset(rand.New(rand.NewSource(5)).Perm(len(ds.y))[:8000])
	}
	grid := map[string][]float64{
		"trees": {5, 15, 30},
		"depth": {6, 14, 22},
	}
	return ml.GridSearch(ds.l, ds.rows, ds.y, grid, 3, func(p ml.GridPoint) ml.Classifier {
		cfg := ml.DefaultRandomForestConfig()
		cfg.NumTrees = int(p["trees"])
		cfg.MaxDepth = int(p["depth"])
		return ml.NewRandomForest(cfg)
	}, 7)
}

// ScalingPoint is one measurement of the accuracy-vs-data-volume
// curve.
type ScalingPoint struct {
	Alarms   int
	Accuracy float64
}

// ScalingCurve measures random-forest verification accuracy as the
// training volume grows, holding the world fixed. The paper's >90 %
// headline comes from 350K alarms; this curve shows the approach to
// it (per-location effects only become learnable with volume). A size
// larger than the dataset is clamped to it, and a clamped size the
// previous point already measured is skipped.
func ScalingCurve(env *Env, sizes []int) ([]ScalingPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{5_000, 10_000, 20_000}
	}
	var out []ScalingPoint
	for _, n := range sizes {
		alarms := env.Alarms()
		n = min(n, len(alarms))
		if len(out) > 0 && out[len(out)-1].Alarms == n {
			continue
		}
		ds, err := encode(dataset.ToLabeled(alarms[:n], time.Minute))
		if err != nil {
			return nil, err
		}
		train, test := ds.split(0.5, 31)
		c, err := ClassifierFor(core.RandomForest, env.Scale)
		if err != nil {
			return nil, err
		}
		if err := train.fit(c); err != nil {
			return nil, err
		}
		acc, err := test.accuracy(c)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{Alarms: n, Accuracy: acc})
	}
	return out, nil
}

// RenderScalingCurve formats the curve.
func RenderScalingCurve(points []ScalingPoint) string {
	header := []string{"alarms", "rf accuracy [%]"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Alarms), pct(p.Accuracy)})
	}
	return "RF accuracy vs training volume (paper: >90% at 350K alarms)\n" +
		renderTable(header, rows)
}
