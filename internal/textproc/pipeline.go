package textproc

import "time"

// Report is one raw item collected from an external source (Twitter
// account, RSS feed, web page) before filtering.
type Report struct {
	Source string // e.g. "twitter:@KapoZuerich", "rss:police-blotter"
	Text   string
	// Metadata, when the source provides it. The pipeline prefers
	// annotations extracted from the text and falls back to these
	// (§4.2: "extracted directly from the textual data or from the
	// metadata (if available)").
	MetaTime     time.Time
	MetaLocation string
}

// Incident is an annotated, relevant report — the pipeline output
// stored in the incident history (Figure 5).
type Incident struct {
	Source   string
	Text     string
	Topic    Topic
	Language Language
	Date     time.Time
	Location string // city or village — coarser than alarm ZIP codes (§5.2)
}

// PipelineStats counts what each stage did, for the monitoring the
// paper's lessons call for.
type PipelineStats struct {
	Collected    int // raw reports in
	Relevant     int // survived the topic filter
	DateFromText int
	DateFromMeta int
	DateMissing  int
	LocFromText  int
	LocFromMeta  int
	LocMissing   int
}

// Pipeline is the collect → filter → annotate → store flow of
// Figure 5.
type Pipeline struct {
	locations *LocationIndex
}

// NewPipeline builds a pipeline that resolves locations against the
// given gazetteer names.
func NewPipeline(placeNames []string) *Pipeline {
	return &Pipeline{locations: NewLocationIndex(placeNames)}
}

// Process filters and annotates raw reports. Reports without a
// recognizable topic are dropped; reports without any resolvable
// location are dropped too (they cannot contribute to a per-location
// risk factor).
func (p *Pipeline) Process(reports []Report) ([]Incident, PipelineStats) {
	var out []Incident
	var st PipelineStats
	st.Collected = len(reports)
	for _, r := range reports {
		topic := ClassifyTopic(r.Text)
		if topic == TopicNone {
			continue
		}
		st.Relevant++
		inc := Incident{
			Source:   r.Source,
			Text:     r.Text,
			Topic:    topic,
			Language: DetectLanguage(r.Text),
		}
		if d, ok := ExtractDate(r.Text); ok {
			inc.Date = d
			st.DateFromText++
		} else if !r.MetaTime.IsZero() {
			inc.Date = r.MetaTime
			st.DateFromMeta++
		} else {
			st.DateMissing++
		}
		if loc, ok := p.locations.ExtractLocation(r.Text); ok {
			inc.Location = loc
			st.LocFromText++
		} else if r.MetaLocation != "" {
			inc.Location = r.MetaLocation
			st.LocFromMeta++
		} else {
			st.LocMissing++
			continue
		}
		out = append(out, inc)
	}
	return out, st
}
