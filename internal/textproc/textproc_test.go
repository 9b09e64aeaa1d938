package textproc

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Break-in at Zürich!  Police responded, 23:45.")
	want := []string{"break-in", "at", "zürich", "police", "responded", "23", "45"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %v, want %v", got, want)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty text tokens = %v", toks)
	}
	if toks := Tokenize("---"); len(toks) != 0 {
		t.Errorf("punctuation-only tokens = %v", toks)
	}
}

func TestTokenizePropertyLowercaseNonEmpty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetectLanguage(t *testing.T) {
	cases := []struct {
		text string
		want Language
	}{
		{"Die Feuerwehr wurde am Montag zu einem Brand in der Altstadt gerufen", German},
		{"Les pompiers sont intervenus pour un incendie dans le quartier de la gare", French},
		{"Firefighters responded to a blaze at the warehouse on Monday morning", English},
		{"0447 1123 9981", Unknown},
	}
	for _, tc := range cases {
		if got := DetectLanguage(tc.text); got != tc.want {
			t.Errorf("DetectLanguage(%q) = %s, want %s", tc.text, got, tc.want)
		}
	}
}

func TestClassifyTopic(t *testing.T) {
	cases := []struct {
		text string
		want Topic
	}{
		{"Brand in einem Mehrfamilienhaus, die Feuerwehr löschte den Vollbrand", TopicFire},
		{"Einbruch in ein Einfamilienhaus, die Einbrecher haben Schmuck gestohlen", TopicIntrusion},
		{"Un incendie a détruit une grange près de Lausanne", TopicFire},
		{"Cambriolage dans une villa, les voleurs ont dérobé des bijoux", TopicIntrusion},
		{"Burglary reported: intruder broke in and stole electronics", TopicIntrusion},
		{"Local football club wins the championship game", TopicNone},
		{"", TopicNone},
	}
	for _, tc := range cases {
		if got := ClassifyTopic(tc.text); got != tc.want {
			t.Errorf("ClassifyTopic(%q) = %q, want %q", tc.text, got, tc.want)
		}
	}
}

func TestExtractDateFormats(t *testing.T) {
	want := time.Date(2016, 2, 11, 0, 0, 0, 0, time.UTC)
	cases := []string{
		"Incident am 11.2.2016 gemeldet",
		"Reported on 2016-02-11 in the morning",
		"Signalé le 11/02/2016 au matin",
		"Brand am 11. Februar 2016 in Winterthur",
		"Incendie le 11 février 2016 à Genève",
		"Fire on 11 February 2016 near the station",
		"Blaze on February 11, 2016 destroyed a barn",
	}
	for _, text := range cases {
		got, ok := ExtractDate(text)
		if !ok {
			t.Errorf("ExtractDate(%q): not found", text)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("ExtractDate(%q) = %s, want %s", text, got, want)
		}
	}
}

func TestExtractDateRejectsInvalid(t *testing.T) {
	for _, text := range []string{
		"no date here",
		"call 079/555/1234 now", // phone-like but invalid date
		"on 30.02.2016 nothing happened",
		"in year 0100-01-01",
	} {
		if d, ok := ExtractDate(text); ok {
			t.Errorf("ExtractDate(%q) = %v, want none", text, d)
		}
	}
}

func TestLocationIndex(t *testing.T) {
	idx := NewLocationIndex([]string{"Zürich", "Winterthur", "La Chaux-de-Fonds", "Basel"})
	cases := []struct {
		text string
		want string
		ok   bool
	}{
		{"Brand in Winterthur gemeldet", "Winterthur", true},
		{"Incendie à La Chaux-de-Fonds hier soir", "La Chaux-de-Fonds", true},
		{"Einbruch in Zürich Altstadt", "Zürich", true},
		{"Nothing about any known place", "", false},
	}
	for _, tc := range cases {
		got, ok := idx.ExtractLocation(tc.text)
		if ok != tc.ok || got != tc.want {
			t.Errorf("ExtractLocation(%q) = %q,%v want %q,%v", tc.text, got, ok, tc.want, tc.ok)
		}
	}
}

func TestLocationIndexPrefersLongestMatch(t *testing.T) {
	idx := NewLocationIndex([]string{"Neuenburg", "Neuenburg am See"})
	got, ok := idx.ExtractLocation("Brand in Neuenburg am See gestern")
	if !ok || got != "Neuenburg am See" {
		t.Errorf("longest match = %q, %v", got, ok)
	}
}

func TestPipelineProcess(t *testing.T) {
	p := NewPipeline([]string{"Zürich", "Basel", "Winterthur"})
	reports := []Report{
		{Source: "twitter:@kapo", Text: "Brand in Winterthur am 11.2.2016, Feuerwehr im Einsatz"},
		{Source: "rss:blotter", Text: "Burglary in Basel: intruder stole jewellery",
			MetaTime: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)},
		{Source: "web:news", Text: "Football results from the weekend"},
		{Source: "twitter:@kapo", Text: "Einbruch gemeldet, Täter flüchtig",
			MetaLocation: "Zürich"},
		{Source: "web:misc", Text: "Cambriolage dans une villa inconnue"}, // no location at all
	}
	incidents, st := p.Process(reports)
	if st.Collected != 5 || st.Relevant != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if len(incidents) != 3 {
		t.Fatalf("incidents = %d, want 3 (topic + location required)", len(incidents))
	}
	if incidents[0].Topic != TopicFire || incidents[0].Location != "Winterthur" ||
		incidents[0].Language != German {
		t.Errorf("incident 0 = %+v", incidents[0])
	}
	if !incidents[0].Date.Equal(time.Date(2016, 2, 11, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("date from text = %v", incidents[0].Date)
	}
	if !incidents[1].Date.Equal(time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("date from meta = %v", incidents[1].Date)
	}
	if incidents[2].Location != "Zürich" {
		t.Errorf("location from meta = %q", incidents[2].Location)
	}
	if st.DateFromText != 1 || st.DateFromMeta != 1 || st.LocFromMeta != 1 {
		t.Errorf("stage stats = %+v", st)
	}
}
