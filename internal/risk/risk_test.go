package risk

import (
	"strings"
	"testing"
	"testing/quick"

	"alarmverify/internal/textproc"
)

func smallGazetteer(t *testing.T) *Gazetteer {
	t.Helper()
	return NewGazetteer(GazetteerConfig{
		NumPlaces:      50,
		NumBigCities:   5,
		MaxZIPsPerCity: 4,
		Seed:           42,
	})
}

func TestGazetteerStructure(t *testing.T) {
	g := smallGazetteer(t)
	if len(g.Places()) != 50 {
		t.Fatalf("places = %d", len(g.Places()))
	}
	big := 0
	seenZIP := map[string]bool{}
	seenName := map[string]bool{}
	for _, p := range g.Places() {
		if p.MultiZIP() {
			big++
		}
		if seenName[p.Name] {
			t.Errorf("duplicate place name %q", p.Name)
		}
		seenName[p.Name] = true
		for _, z := range p.ZIPs {
			if seenZIP[z] {
				t.Errorf("duplicate ZIP %s", z)
			}
			seenZIP[z] = true
			got, ok := g.ByZIP(z)
			if !ok || got.Name != p.Name {
				t.Errorf("ByZIP(%s) broken", z)
			}
		}
		if p.Population <= 0 {
			t.Errorf("place %s has population %d", p.Name, p.Population)
		}
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Errorf("place %s off-grid: %f,%f", p.Name, p.X, p.Y)
		}
	}
	if big != 5 {
		t.Errorf("big cities = %d, want 5", big)
	}
}

func TestGazetteerDeterminism(t *testing.T) {
	a := NewGazetteer(DefaultGazetteerConfig())
	b := NewGazetteer(DefaultGazetteerConfig())
	if len(a.Places()) != len(b.Places()) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Places() {
		pa, pb := a.Places()[i], b.Places()[i]
		if pa.Name != pb.Name || pa.Population != pb.Population || len(pa.ZIPs) != len(pb.ZIPs) {
			t.Fatalf("place %d differs: %+v vs %+v", i, pa, pb)
		}
	}
}

func TestGazetteerBigCitiesHaveBigPopulations(t *testing.T) {
	g := NewGazetteer(DefaultGazetteerConfig())
	sorted := g.SortedByPopulation()
	if sorted[0].Population < 50_000 {
		t.Errorf("largest city population = %d", sorted[0].Population)
	}
	if !sorted[0].MultiZIP() {
		t.Error("largest city should have multiple ZIPs")
	}
}

func incidentsAt(place string, topic textproc.Topic, n int) []textproc.Incident {
	out := make([]textproc.Incident, n)
	for i := range out {
		out[i] = textproc.Incident{Location: place, Topic: topic}
	}
	return out
}

func TestModelCountsAndCoverage(t *testing.T) {
	g := smallGazetteer(t)
	places := g.Places()
	var incidents []textproc.Incident
	incidents = append(incidents, incidentsAt(places[0].Name, textproc.TopicFire, 5)...)
	incidents = append(incidents, incidentsAt(places[1].Name, textproc.TopicIntrusion, 3)...)
	incidents = append(incidents, textproc.Incident{Location: "NowhereVille", Topic: textproc.TopicFire})
	m := BuildModel(g, incidents)
	if m.CoveredLocations() != 2 {
		t.Fatalf("covered = %d", m.CoveredLocations())
	}
	if m.IncidentCount(places[0].Name) != 5 {
		t.Errorf("count = %d", m.IncidentCount(places[0].Name))
	}
	if m.TopicCount(places[1].Name, textproc.TopicIntrusion) != 3 {
		t.Errorf("topic count = %d", m.TopicCount(places[1].Name, textproc.TopicIntrusion))
	}
	if !m.Covered(places[0].ZIPs[0]) {
		t.Error("covered ZIP reported uncovered")
	}
	if m.Covered(places[5].ZIPs[0]) {
		t.Error("uncovered ZIP reported covered")
	}
}

func TestFactorKinds(t *testing.T) {
	g := smallGazetteer(t)
	places := g.SortedByPopulation()
	// Heavily hit small village, lightly hit big city.
	village := places[len(places)-1]
	city := places[0]
	var incidents []textproc.Incident
	incidents = append(incidents, incidentsAt(village.Name, textproc.TopicFire, 20)...)
	incidents = append(incidents, incidentsAt(city.Name, textproc.TopicFire, 2)...)
	m := BuildModel(g, incidents)

	vAbs := m.FactorByZIP(village.ZIPs[0], Absolute)
	cAbs := m.FactorByZIP(city.ZIPs[0], Absolute)
	if vAbs <= cAbs {
		t.Errorf("per-capita risk: village %g should exceed city %g", vAbs, cAbs)
	}
	vN := m.FactorByZIP(village.ZIPs[0], Normalized)
	cN := m.FactorByZIP(city.ZIPs[0], Normalized)
	if vN != 1 || cN != 0 {
		t.Errorf("normalized extremes = %g, %g (want 1, 0)", vN, cN)
	}
	// Binary: the village (20 incidents) is in the top quarter of 2
	// locations; the city with 2 incidents is not above the cut.
	if m.FactorByZIP(village.ZIPs[0], Binary) != 1 {
		t.Error("village should be binary-risky")
	}
	// Uncovered ZIP → 0 for all kinds.
	other := places[10]
	for _, k := range []Kind{Absolute, Normalized, Binary} {
		if got := m.FactorByZIP(other.ZIPs[0], k); got != 0 {
			t.Errorf("uncovered %s = %g", k, got)
		}
	}
	// Unknown ZIP → 0.
	if m.FactorByZIP("0000", Absolute) != 0 {
		t.Error("unknown ZIP should be 0")
	}
}

func TestMultiZIPCitySharesRisk(t *testing.T) {
	g := smallGazetteer(t)
	var city *Place
	for i := range g.Places() {
		if g.Places()[i].MultiZIP() {
			city = &g.Places()[i]
			break
		}
	}
	if city == nil {
		t.Fatal("no multi-ZIP city in gazetteer")
	}
	m := BuildModel(g, incidentsAt(city.Name, textproc.TopicFire, 4))
	first := m.FactorByZIP(city.ZIPs[0], Absolute)
	for _, z := range city.ZIPs[1:] {
		if got := m.FactorByZIP(z, Absolute); got != first {
			t.Errorf("district %s risk %g != %g (city-level aggregation broken)", z, got, first)
		}
	}
}

func TestRiskKindString(t *testing.T) {
	if Absolute.String() != "ARF" || Normalized.String() != "NRF" || Binary.String() != "BRF" {
		t.Error("risk kind labels must match Table 9 headers")
	}
}

func TestLevels(t *testing.T) {
	g := smallGazetteer(t)
	places := g.SortedByPopulation()
	small := places[len(places)-1]
	big := places[0]
	var incidents []textproc.Incident
	incidents = append(incidents, incidentsAt(small.Name, textproc.TopicFire, 30)...)
	incidents = append(incidents, incidentsAt(big.Name, textproc.TopicFire, 1)...)
	m := BuildModel(g, incidents)
	if m.LevelFor(small.Name) != LevelHigh {
		t.Errorf("hot village level = %s", m.LevelFor(small.Name))
	}
	if m.LevelFor(big.Name) != LevelSafe {
		t.Errorf("cool city level = %s", m.LevelFor(big.Name))
	}
	if m.LevelFor("Unknown Place") != LevelSafe {
		t.Error("unknown place should be safe")
	}
}

func TestSecurityMapRender(t *testing.T) {
	g := smallGazetteer(t)
	places := g.Places()
	var incidents []textproc.Incident
	for i := 0; i < 10; i++ {
		incidents = append(incidents, incidentsAt(places[i].Name, textproc.TopicFire, i+1)...)
	}
	m := BuildModel(g, incidents)
	out := SecurityMap{Width: 40, Height: 10}.Render(m)
	if !strings.Contains(out, "10 covered locations") {
		t.Errorf("header missing coverage:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 13 { // header + top border + 10 rows + bottom border
		t.Fatalf("rendered %d lines", len(lines))
	}
	marks := 0
	for _, l := range lines[2 : len(lines)-1] {
		if len([]rune(l)) != 42 {
			t.Errorf("row width = %d: %q", len([]rune(l)), l)
		}
		marks += strings.Count(l, "o") + strings.Count(l, "+") + strings.Count(l, "#")
	}
	if marks == 0 {
		t.Error("no risk marks rendered")
	}
}

func TestPropertyFactorsInRange(t *testing.T) {
	g := smallGazetteer(t)
	places := g.Places()
	f := func(hits []uint8) bool {
		var incidents []textproc.Incident
		for i, h := range hits {
			p := places[i%len(places)]
			incidents = append(incidents, incidentsAt(p.Name, textproc.TopicFire, int(h%10))...)
		}
		if len(incidents) == 0 {
			return true
		}
		m := BuildModel(g, incidents)
		for _, p := range places {
			n := m.FactorByZIP(p.ZIPs[0], Normalized)
			b := m.FactorByZIP(p.ZIPs[0], Binary)
			a := m.FactorByZIP(p.ZIPs[0], Absolute)
			if n < 0 || n > 1 || (b != 0 && b != 1) || a < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
