// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each experiment is a pure function of a
// Scale, so the same code drives the quick benchmarks (SmallScale),
// the CI-sized runs (MediumScale) and a paper-sized run (PaperScale).
//
// The per-experiment index lives in DESIGN.md; measured-vs-paper
// numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// Scale sizes every experiment. The paper's sizes are the PaperScale
// values; smaller scales preserve every ratio the experiments assert.
type Scale struct {
	Name string

	// Dataset sizes.
	SitasysAlarms   int
	SitasysDevices  int
	LFBIncidents    int
	SFRecords       int
	IncidentReports int
	NumPlaces       int
	NumBigCities    int
	IncidentPlaces  int

	// Model budgets (training cost scales with these).
	RFTrees   int
	RFDepth   int
	SVMIters  int
	LRIters   int
	DNNEpochs int

	// Streaming sizes.
	StreamAlarms int
	Partitions   int
}

// SmallScale finishes each experiment in seconds — the default for
// `go test -bench` and quick runs.
func SmallScale() Scale {
	return Scale{
		Name:            "small",
		SitasysAlarms:   20_000,
		SitasysDevices:  400,
		LFBIncidents:    20_000,
		SFRecords:       1_200_000,
		IncidentReports: 1_200,
		NumPlaces:       300,
		NumBigCities:    8,
		IncidentPlaces:  120,
		RFTrees:         50,
		RFDepth:         30,
		SVMIters:        400,
		LRIters:         150,
		DNNEpochs:       15,
		StreamAlarms:    20_000,
		Partitions:      4,
	}
}

// MediumScale is a few minutes per experiment.
func MediumScale() Scale {
	return Scale{
		Name:            "medium",
		SitasysAlarms:   80_000,
		SitasysDevices:  2_000,
		LFBIncidents:    120_000,
		SFRecords:       4_300_000,
		IncidentReports: 5_056,
		NumPlaces:       1_200,
		NumBigCities:    15,
		IncidentPlaces:  400,
		RFTrees:         50,
		RFDepth:         30,
		SVMIters:        1_000,
		LRIters:         300,
		DNNEpochs:       30,
		StreamAlarms:    80_000,
		Partitions:      8,
	}
}

// PaperScale matches the paper's dataset sizes and published
// hyper-parameters (Tables 3–7). Expect long runtimes.
func PaperScale() Scale {
	return Scale{
		Name:            "paper",
		SitasysAlarms:   350_000,
		SitasysDevices:  8_000,
		LFBIncidents:    885_000,
		SFRecords:       4_300_000,
		IncidentReports: 5_056,
		NumPlaces:       4_100,
		NumBigCities:    25,
		IncidentPlaces:  1_027,
		RFTrees:         50,
		RFDepth:         30,
		SVMIters:        2_000,
		LRIters:         500,
		DNNEpochs:       10_000,
		StreamAlarms:    350_000,
		Partitions:      8,
	}
}

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small", "":
		return SmallScale(), nil
	case "medium":
		return MediumScale(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (small|medium|paper)", name)
	}
}

// Env lazily materializes the shared datasets for one scale so
// experiments that need the same data do not regenerate it.
type Env struct {
	Scale Scale

	once      sync.Once
	world     *dataset.World
	alarms    []alarm.Alarm
	incOnce   sync.Once
	incidents []textproc.Incident
	incStats  textproc.PipelineStats
	riskModel *risk.Model
}

// NewEnv creates an environment for the scale.
func NewEnv(s Scale) *Env { return &Env{Scale: s} }

// World returns the synthetic country.
func (e *Env) World() *dataset.World {
	e.once.Do(e.build)
	return e.world
}

// Alarms returns the Sitasys-like alarm stream.
func (e *Env) Alarms() []alarm.Alarm {
	e.once.Do(e.build)
	return e.alarms
}

func (e *Env) build() {
	gaz := risk.NewGazetteer(risk.GazetteerConfig{
		NumPlaces:      e.Scale.NumPlaces,
		NumBigCities:   e.Scale.NumBigCities,
		MaxZIPsPerCity: 8,
		Seed:           1871,
	})
	e.world = dataset.NewWorldWith(gaz, 42)
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = e.Scale.SitasysAlarms
	cfg.NumDevices = e.Scale.SitasysDevices
	e.alarms = dataset.GenerateSitasys(e.world, cfg)
}

// Incidents returns the annotated incident corpus (running the text
// pipeline once).
func (e *Env) Incidents() []textproc.Incident {
	e.incOnce.Do(func() {
		cfg := dataset.DefaultIncidentConfig()
		cfg.NumReports = e.Scale.IncidentReports
		cfg.NumLocations = e.Scale.IncidentPlaces
		reports := dataset.GenerateIncidentReports(e.World(), cfg)
		pipeline := textproc.NewPipeline(e.World().Gaz.Names())
		e.incidents, e.incStats = pipeline.Process(reports)
		e.riskModel = risk.BuildModel(e.World().Gaz, e.incidents)
	})
	return e.incidents
}

// RiskModel returns the per-location risk model over the incident
// corpus.
func (e *Env) RiskModel() *risk.Model {
	e.Incidents()
	return e.riskModel
}

// ClassifierFor builds a classifier for the algorithm with budgets
// from the scale (PaperScale uses exactly the Tables 3–7 values).
func ClassifierFor(algo core.Algorithm, s Scale) (ml.Classifier, error) {
	switch algo {
	case core.RandomForest:
		cfg := ml.DefaultRandomForestConfig()
		cfg.NumTrees = s.RFTrees
		cfg.MaxDepth = s.RFDepth
		return ml.NewRandomForest(cfg), nil
	case core.SupportVectorMachine:
		cfg := ml.DefaultSVMConfig()
		cfg.MaxIterations = s.SVMIters
		return ml.NewSVM(cfg), nil
	case core.LogisticRegression:
		cfg := ml.DefaultLogisticRegressionConfig()
		cfg.MaxIterations = s.LRIters
		return ml.NewLogisticRegression(cfg), nil
	case core.DeepNeuralNetwork:
		cfg := ml.DefaultDNNConfig()
		cfg.MaxEpochs = s.DNNEpochs
		cfg.Patience = 8
		return ml.NewDNN(cfg), nil
	default:
		return nil, fmt.Errorf("%w: %q", core.ErrUnknownAlgorithm, algo)
	}
}

// renderTable formats rows as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func pct(f float64) string { return fmt.Sprintf("%.2f", 100*f) }
