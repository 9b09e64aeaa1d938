package experiments

import (
	"fmt"
	"sort"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// Scenario is one column of Table 9.
type Scenario string

// The four hybrid-evaluation scenarios of §5.4.
const (
	ScenarioA Scenario = "a" // all covered locations, all alarm types
	ScenarioB Scenario = "b" // all covered locations, fire & intrusion only
	ScenarioC Scenario = "c" // single-ZIP locations, all alarm types
	ScenarioD Scenario = "d" // single-ZIP locations, fire & intrusion only
)

// Scenarios lists them in the paper's order.
func Scenarios() []Scenario { return []Scenario{ScenarioA, ScenarioB, ScenarioC, ScenarioD} }

// Table9Row is the accuracy of one risk treatment in one scenario.
type Table9Row struct {
	Scenario  Scenario
	Treatment string // "baseline", "ARF", "NRF", "BRF"
	Accuracy  float64
	NumAlarms int
}

// scenarioAlarms filters the alarm stream per scenario: alarms must
// be in locations covered by the incident corpus (§5.4 restricts the
// evaluation to covered ZIP codes); scenarios c/d keep only
// single-ZIP places; scenarios b/d keep only fire and intrusion
// alarms.
func scenarioAlarms(env *Env, sc Scenario) []alarm.Alarm {
	model := env.RiskModel()
	gaz := env.World().Gaz
	fiOnly := sc == ScenarioB || sc == ScenarioD
	singleZIP := sc == ScenarioC || sc == ScenarioD
	var out []alarm.Alarm
	for _, a := range env.Alarms() {
		if !model.Covered(a.ZIP) {
			continue
		}
		if singleZIP {
			p, ok := gaz.ByZIP(a.ZIP)
			if !ok || p.MultiZIP() {
				continue
			}
		}
		if fiOnly && a.Type != alarm.TypeFire && a.Type != alarm.TypeIntrusion {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Table9 reproduces the hybrid-approach evaluation: per scenario, the
// baseline accuracy and the accuracy with each risk-factor flavour,
// averaged over runs (the paper averages 10 runs).
func Table9(env *Env, runs int) ([]Table9Row, error) {
	if runs < 1 {
		runs = 3
	}
	treatments := []struct {
		name string
		kind risk.Kind
		use  bool
	}{
		{"baseline", 0, false},
		{"ARF", risk.Absolute, true},
		{"NRF", risk.Normalized, true},
		{"BRF", risk.Binary, true},
	}
	var out []Table9Row
	for _, sc := range Scenarios() {
		alarms := scenarioAlarms(env, sc)
		if len(alarms) < 200 {
			return nil, fmt.Errorf("experiments: scenario %s has only %d alarms", sc, len(alarms))
		}
		for _, tr := range treatments {
			sum := 0.0
			for run := 0; run < runs; run++ {
				labeled := dataset.ToLabeled(alarms, time.Minute)
				if tr.use {
					dataset.AttachRisk(labeled, env.RiskModel(), tr.kind)
				}
				ds, err := encode(labeled)
				if err != nil {
					return nil, err
				}
				train, test := ds.split(0.5, int64(100+run))
				c, err := ClassifierFor("rf", env.Scale)
				if err != nil {
					return nil, err
				}
				if rf, ok := c.(*ml.RandomForest); ok {
					rf.Config.Seed = int64(run + 1)
				}
				if err := train.fit(c); err != nil {
					return nil, err
				}
				acc, err := test.accuracy(c)
				if err != nil {
					return nil, err
				}
				sum += acc
			}
			out = append(out, Table9Row{
				Scenario:  sc,
				Treatment: tr.name,
				Accuracy:  sum / float64(runs),
				NumAlarms: len(alarms),
			})
		}
	}
	return out, nil
}

// RenderTable9 formats the hybrid results like the paper's Table 9.
func RenderTable9(rows []Table9Row) string {
	header := []string{"treatment"}
	for _, sc := range Scenarios() {
		header = append(header, "("+string(sc)+")")
	}
	byTreatment := map[string]map[Scenario]Table9Row{}
	var order []string
	for _, r := range rows {
		m, ok := byTreatment[r.Treatment]
		if !ok {
			m = map[Scenario]Table9Row{}
			byTreatment[r.Treatment] = m
			order = append(order, r.Treatment)
		}
		m[r.Scenario] = r
	}
	var tbl [][]string
	for _, tr := range order {
		row := []string{tr}
		for _, sc := range Scenarios() {
			row = append(row, pct(byTreatment[tr][sc].Accuracy))
		}
		tbl = append(tbl, row)
	}
	counts := []string{"#-alarms"}
	for _, sc := range Scenarios() {
		counts = append(counts, fmt.Sprintf("%d", byTreatment[order[0]][sc].NumAlarms))
	}
	tbl = append(tbl, counts)
	return "Table 9: hybrid accuracy [%] per scenario (a: all/all, b: all/F+I, " +
		"c: single-ZIP/all, d: single-ZIP/F+I)\n" + renderTable(header, tbl)
}

// Table2Row is one district line of Table 2: ZIP-level true-alarm
// counts against city-level incident counts.
type Table2Row struct {
	ZIP           string
	TrueIntrusion int
	TrueFire      int
}

// Table2Result is the Basel-style granularity-divergence table.
type Table2Result struct {
	City               string
	Rows               []Table2Row
	CityIntrusionTotal int // incidents, city granularity
	CityFireTotal      int
	AlarmIntrusion     int // true alarms summed over districts
	AlarmFire          int
}

// Table2 reproduces the divergence table for the largest multi-ZIP
// city: alarms are counted per ZIP district, incidents only per city.
func Table2(env *Env, deltaT time.Duration) (*Table2Result, error) {
	if deltaT <= 0 {
		deltaT = time.Minute
	}
	gaz := env.World().Gaz
	model := env.RiskModel()
	// Largest covered multi-ZIP city.
	var city *risk.Place
	for _, p := range gaz.SortedByPopulation() {
		if p.MultiZIP() && model.IncidentCount(p.Name) > 0 {
			city = p
			break
		}
	}
	if city == nil {
		return nil, fmt.Errorf("experiments: no covered multi-ZIP city")
	}
	res := &Table2Result{
		City:               city.Name,
		CityIntrusionTotal: model.TopicCount(city.Name, textproc.TopicIntrusion),
		CityFireTotal:      model.TopicCount(city.Name, textproc.TopicFire),
	}
	counts := map[string]*Table2Row{}
	for _, z := range city.ZIPs {
		counts[z] = &Table2Row{ZIP: z}
	}
	dt := deltaT.Seconds()
	for _, a := range env.Alarms() {
		row, ok := counts[a.ZIP]
		if !ok || a.Duration < dt {
			continue
		}
		switch a.Type {
		case alarm.TypeIntrusion:
			row.TrueIntrusion++
			res.AlarmIntrusion++
		case alarm.TypeFire:
			row.TrueFire++
			res.AlarmFire++
		}
	}
	for _, z := range city.ZIPs {
		res.Rows = append(res.Rows, *counts[z])
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].ZIP < res.Rows[j].ZIP })
	return res, nil
}

// RenderTable2 formats the divergence table.
func RenderTable2(r *Table2Result) string {
	header := []string{"ZIP (" + r.City + ")", "true intrusion", "true fire", "incidents"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.ZIP,
			fmt.Sprintf("%d", row.TrueIntrusion),
			fmt.Sprintf("%d", row.TrueFire),
			"[unknown]"})
	}
	rows = append(rows, []string{"city total",
		fmt.Sprintf("%d", r.AlarmIntrusion),
		fmt.Sprintf("%d", r.AlarmFire),
		fmt.Sprintf("intrusion %d / fire %d", r.CityIntrusionTotal, r.CityFireTotal)})
	return "Table 2: ZIP-level true alarms vs city-level incident reports\n" +
		renderTable(header, rows)
}

// Fig7Row pairs, per location, the number of true fire/intrusion
// alarms with the number of collected incident reports.
type Fig7Row struct {
	Place      string
	TrueAlarms int
	Incidents  int
}

// Fig7 reproduces the discrepancy chart: for the locations with the
// most true fire/intrusion alarms, how few incident reports exist.
func Fig7(env *Env, topN int, deltaT time.Duration) []Fig7Row {
	if topN <= 0 {
		topN = 10
	}
	if deltaT <= 0 {
		deltaT = time.Minute
	}
	gaz := env.World().Gaz
	model := env.RiskModel()
	trueByPlace := map[string]int{}
	dt := deltaT.Seconds()
	for _, a := range env.Alarms() {
		if a.Duration < dt || (a.Type != alarm.TypeFire && a.Type != alarm.TypeIntrusion) {
			continue
		}
		if p, ok := gaz.ByZIP(a.ZIP); ok {
			trueByPlace[p.Name]++
		}
	}
	rows := make([]Fig7Row, 0, len(trueByPlace))
	for place, n := range trueByPlace {
		rows = append(rows, Fig7Row{Place: place, TrueAlarms: n, Incidents: model.IncidentCount(place)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TrueAlarms != rows[j].TrueAlarms {
			return rows[i].TrueAlarms > rows[j].TrueAlarms
		}
		return rows[i].Place < rows[j].Place
	})
	if len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// RenderFig7 formats the discrepancy rows.
func RenderFig7(rows []Fig7Row) string {
	header := []string{"location", "true F/I alarms", "incident reports"}
	var tbl [][]string
	for _, r := range rows {
		tbl = append(tbl, []string{r.Place, fmt.Sprintf("%d", r.TrueAlarms), fmt.Sprintf("%d", r.Incidents)})
	}
	return "Figure 7: true fire/intrusion alarms vs collected incident reports\n" +
		renderTable(header, tbl)
}
