package experiments

import (
	"fmt"
	"sort"
	"strings"

	"alarmverify/internal/dataset"
	"alarmverify/internal/risk"
)

// Fig6 reproduces the London Fire Brigade statistics: incident-group
// counts per year and the overall false-alarm ratio.
func Fig6(env *Env) ([]dataset.LFBYearStats, float64) {
	cfg := dataset.DefaultLFBConfig()
	cfg.NumIncidents = env.Scale.LFBIncidents
	return dataset.LFBStats(dataset.GenerateLFB(cfg))
}

// RenderFig6 formats the statistics.
func RenderFig6(perYear []dataset.LFBYearStats, falseRatio float64) string {
	header := []string{"year", "fire", "special service", "false alarm"}
	var rows [][]string
	for _, y := range perYear {
		rows = append(rows, []string{
			fmt.Sprintf("%d", y.Year),
			fmt.Sprintf("%d", y.Fire),
			fmt.Sprintf("%d", y.SpecialService),
			fmt.Sprintf("%d", y.FalseAlarm),
		})
	}
	return fmt.Sprintf("Figure 6: LFB incident groups per year (false ratio %.1f%%, paper: 48%%)\n",
		100*falseRatio) + renderTable(header, rows)
}

// Fig8 renders the security map over the incident-derived risk model,
// after the counts of the text pipeline behind it (reports collected,
// relevant after the topic filter, annotated) and before the eight
// locations of highest normalized risk, the map's red zones.
func Fig8(env *Env, width, height int) string {
	model := env.RiskModel()
	var b strings.Builder
	fmt.Fprintf(&b, "collected %d reports, %d relevant after topic filter, %d annotated incidents\n",
		env.incStats.Collected, env.incStats.Relevant, len(env.Incidents()))
	b.WriteString(risk.SecurityMap{Width: width, Height: height}.Render(model))
	type hot struct {
		name string
		nrf  float64
		n    int
	}
	var hots []hot
	for _, p := range env.World().Gaz.Places() {
		if n := model.IncidentCount(p.Name); n > 0 {
			hots = append(hots, hot{p.Name, model.FactorByZIP(p.ZIPs[0], risk.Normalized), n})
		}
	}
	sort.SliceStable(hots, func(i, j int) bool { return hots[i].nrf > hots[j].nrf })
	b.WriteString("\nhighest-risk locations (normalized risk factor):\n")
	for _, h := range hots[:min(8, len(hots))] {
		fmt.Fprintf(&b, "  %-24s NRF=%.3f (%d incidents)\n", h.name, h.nrf, h.n)
	}
	return b.String()
}

// Table1 documents the feature correspondence across the three
// datasets — the paper's Table 1, reproduced as structured data so
// the harness can print it.
func Table1() string {
	header := []string{"dataset", "location", "time", "type of location", "incident type", "label"}
	rows := [][]string{
		{"Sitasys", "ZIP code", "Timestamp", "ObjectType", "Alarm Type", "Alarm Duration"},
		{"London", "ZIP code", "Date/TimeOfCall", "PropertyType", "PropertyCategory", "Incident Group"},
		{"San Francisco", "Zip code Of Incident", "ReceivedDtTm", "-", "Call Type", "Call Final Disposition"},
	}
	return "Table 1: features of the three datasets\n" + renderTable(header, rows)
}

// Params renders the published hyper-parameters (Tables 3–7) from the
// live defaults, so drift between code and paper is visible.
func Params() string {
	out := "Tables 3-7: hyper-parameters (live defaults)\n\n"
	out += "Table 3 (Random Forest):   50 trees, max depth 30\n"
	out += "Table 4 (SVM):             2000 iterations, step 1.0, mini-batch fraction 0.2, L2 1e-2, linear kernel\n"
	out += "Table 5 (Logistic Reg.):   500 iterations, tolerance 1e-6\n"
	out += "Table 6 (DNN training):    max 10000 epochs, mini-batch 200, cross entropy, Nesterov momentum, lr 0.1, momentum 0.9\n"
	out += "Table 7 (DNN layers):      input -> 50 ReLU -> 2 ReLU -> 2 softmax\n"
	return out
}

// IncidentCorpusStats summarizes the generated incident corpus the
// way §5.2 reports it (language mix, distinct locations).
type IncidentCorpusStats struct {
	Total     int
	German    int
	French    int
	English   int
	Locations int
}

// CorpusStats tallies the environment's incident corpus.
func CorpusStats(env *Env) IncidentCorpusStats {
	var st IncidentCorpusStats
	locs := map[string]bool{}
	for _, inc := range env.Incidents() {
		st.Total++
		switch inc.Language {
		case "de":
			st.German++
		case "fr":
			st.French++
		case "en":
			st.English++
		}
		locs[inc.Location] = true
	}
	st.Locations = len(locs)
	return st
}

// RenderCorpusStats formats the corpus summary.
func RenderCorpusStats(st IncidentCorpusStats) string {
	return fmt.Sprintf(
		"Incident corpus (§5.2): %d reports (%d de / %d fr / %d en) over %d distinct locations\n"+
			"paper: 5,056 reports (2,743 de / 1,516 fr / 797 en) over 1,027 locations\n",
		st.Total, st.German, st.French, st.English, st.Locations)
}
