package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"alarmverify/internal/alarm"
)

// SFRecord is one San Francisco Fire Department call record (§5.1.3),
// restricted to the Table 1 features. Note there is no property-type
// column — the paper calls this out as one reason for the dataset's
// lower accuracy.
type SFRecord struct {
	ZIP                  string
	ReceivedDtTm         time.Time
	CallType             string // "Medical Incident", "Alarms", "Structure Fire", …
	CallFinalDisposition string // the label column; "Other" for >50 % of rows
}

// SFConfig sizes the synthetic San Francisco dataset.
type SFConfig struct {
	// TotalRecords is the raw dataset size (the paper's snapshot has
	// 4.3M); after quality filtering only a small usable subset
	// remains.
	TotalRecords int
	Seed         int64
	StartYear    int
	Years        int
	NumZIPs      int
}

// DefaultSFConfig matches the paper's description: a 4.3M-record
// dump from 2000 onward of which only ≈12K alarm/fire records carry a
// usable label.
func DefaultSFConfig() SFConfig {
	return SFConfig{
		TotalRecords: 4_300_000,
		Seed:         2000,
		StartYear:    2000,
		Years:        17,
		NumZIPs:      27,
	}
}

var (
	sfCallTypes = []string{
		"Medical Incident", "Alarms", "Structure Fire", "Outside Fire",
		"Traffic Collision", "Water Rescue", "Gas Leak", "Electrical Hazard",
		"Citizen Assist", "Vehicle Fire",
	}
	// Dispositions: "Other" dominates; "No Merit" is the explicit
	// false-alarm label; "Fire" / "Code 2/3 Transport" etc. indicate
	// real incidents.
	sfTrueDispositions = []string{"Fire", "Code 3 Transport", "Patient Handled"}
)

// sfIsAlarmOrFire reports whether the call type belongs to the
// alarm/fire categories the paper restricts its study to.
func sfIsAlarmOrFire(callType string) bool {
	switch callType {
	case "Alarms", "Structure Fire", "Outside Fire", "Vehicle Fire":
		return true
	default:
		return false
	}
}

// GenerateSF synthesizes the raw San Francisco dump with the paper's
// quality profile: medical incidents are the majority call type,
// more than half of all records carry the unusable "Other"
// disposition, and the usable alarm/fire subset is tiny.
func GenerateSF(cfg SFConfig) []SFRecord {
	if cfg.TotalRecords < 1 {
		return nil
	}
	if cfg.NumZIPs < 1 {
		cfg.NumZIPs = 27
	}
	if cfg.Years < 1 {
		cfg.Years = 17
	}
	if cfg.StartYear == 0 {
		cfg.StartYear = 2000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipBias := make([]float64, cfg.NumZIPs)
	for i := range zipBias {
		zipBias[i] = rng.NormFloat64() * 0.5
	}
	start := time.Date(cfg.StartYear, 1, 1, 0, 0, 0, 0, time.UTC)
	span := time.Date(cfg.StartYear+cfg.Years, 1, 1, 0, 0, 0, 0, time.UTC).Sub(start)

	out := make([]SFRecord, cfg.TotalRecords)
	for i := range out {
		zipIdx := rng.Intn(cfg.NumZIPs)
		ts := start.Add(time.Duration(rng.Int63n(int64(span))))
		// Call-type mix: >50 % medical (§5.1.3), ~23 % alarm/fire.
		var callType string
		r := rng.Float64()
		switch {
		case r < 0.54:
			callType = "Medical Incident"
		case r < 0.66:
			callType = "Alarms"
		case r < 0.73:
			callType = "Structure Fire"
		case r < 0.76:
			callType = "Outside Fire"
		case r < 0.77:
			callType = "Vehicle Fire"
		default:
			callType = sfCallTypes[4+rng.Intn(len(sfCallTypes)-4)]
		}
		disposition := "Other"
		// Alarm/fire calls almost never get a definitive disposition
		// (≈12K of ≈1M in the paper); other call types are labelled
		// more often but are useless for this study.
		var properlyLabeled bool
		if sfIsAlarmOrFire(callType) {
			properlyLabeled = rng.Float64() < 0.012
		} else {
			properlyLabeled = rng.Float64() < 0.42
		}
		if properlyLabeled {
			hour := ts.Hour()
			score := 0.35 + zipBias[zipIdx]
			if callType == "Alarms" {
				score -= 1.2
			}
			if callType == "Structure Fire" || callType == "Outside Fire" {
				score += 0.9
			}
			if hour >= 10 && hour < 17 {
				score -= 0.6
			} else if hour >= 23 || hour < 5 {
				score += 0.6
			}
			if rng.Float64() < sigmoid(2.2*score) {
				disposition = sfTrueDispositions[rng.Intn(len(sfTrueDispositions))]
			} else {
				disposition = "No Merit"
			}
		}
		out[i] = SFRecord{
			ZIP:                  fmt.Sprintf("941%02d", zipIdx),
			ReceivedDtTm:         ts,
			CallType:             callType,
			CallFinalDisposition: disposition,
		}
	}
	return out
}

// SFUsable filters the raw dump down to the study subset: alarm/fire
// call types with a definitive disposition (§5.1.3: "we could only
// consider incidents of type alarm and fire that have a proper
// label").
func SFUsable(recs []SFRecord) []SFRecord {
	var out []SFRecord
	for _, r := range recs {
		if sfIsAlarmOrFire(r.CallType) && r.CallFinalDisposition != "Other" {
			out = append(out, r)
		}
	}
	return out
}

// SFToLabeled maps usable San Francisco records onto the generic
// training record. The dataset has no property-type column, so that
// feature degenerates to a constant — one of the paper's explanations
// for the lower transfer accuracy.
func SFToLabeled(recs []SFRecord) []alarm.LabeledAlarm {
	out := make([]alarm.LabeledAlarm, len(recs))
	for i, r := range recs {
		label := alarm.True
		if r.CallFinalDisposition == "No Merit" {
			label = alarm.False
		}
		out[i] = alarm.LabeledAlarm{
			Location:     r.ZIP,
			PropertyType: "unknown",
			HourOfDay:    r.ReceivedDtTm.Hour(),
			DayOfWeek:    int(r.ReceivedDtTm.Weekday()),
			AlarmType:    r.CallType,
			Label:        label,
		}
	}
	return out
}
