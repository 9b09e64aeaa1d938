// Package alarm defines the wire-level and feature-level alarm types
// shared by every component of the verification pipeline.
//
// The paper's "Design for reusability" lesson (§6.1) asks for a generic
// alarm abstraction — a set of categorical features (Location,
// PropertyType, HourOfDay, DayOfWeek) that describe alarms in general,
// extensible with use-case specific fields. Alarm is the wire format
// sent by a sensor (Figure 4); LabeledAlarm is the generic,
// dataset-independent training record.
package alarm

import (
	"fmt"
	"time"
)

// Type enumerates the kind of incident a sensor reports.
type Type int

// Alarm types observed in the Sitasys production data. Fire and
// Intrusion are the two types the hybrid approach (§5.4) focuses on.
const (
	TypeFire Type = iota
	TypeIntrusion
	TypeTechnical
	TypeMedical
	TypeWater
	TypePanic
	numTypes
)

// String returns the canonical lowercase name of the alarm type.
func (t Type) String() string {
	switch t {
	case TypeFire:
		return "fire"
	case TypeIntrusion:
		return "intrusion"
	case TypeTechnical:
		return "technical"
	case TypeMedical:
		return "medical"
	case TypeWater:
		return "water"
	case TypePanic:
		return "panic"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType converts a type name back to its Type. It reports
// ok=false for unknown names.
func ParseType(s string) (Type, bool) {
	for t := Type(0); t < numTypes; t++ {
		if t.String() == s {
			return t, true
		}
	}
	return 0, false
}

// NumTypes returns the number of distinct alarm types.
func NumTypes() int { return int(numTypes) }

// ObjectType classifies the supervised premise an alarm originates
// from (the Sitasys "ObjectType" feature of Table 1).
type ObjectType int

// Premise categories.
const (
	ObjectResidential ObjectType = iota
	ObjectIndustrial
	ObjectCommercial
	ObjectPublic
	ObjectAgricultural
	numObjectTypes
)

// String returns the canonical lowercase name of the object type.
func (o ObjectType) String() string {
	switch o {
	case ObjectResidential:
		return "residential"
	case ObjectIndustrial:
		return "industrial"
	case ObjectCommercial:
		return "commercial"
	case ObjectPublic:
		return "public"
	case ObjectAgricultural:
		return "agricultural"
	default:
		return fmt.Sprintf("object(%d)", int(o))
	}
}

// ParseObjectType converts an object-type name back to its ObjectType.
func ParseObjectType(s string) (ObjectType, bool) {
	for o := ObjectType(0); o < numObjectTypes; o++ {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// NumObjectTypes returns the number of distinct premise categories.
func NumObjectTypes() int { return int(numObjectTypes) }

// Alarm is the simplified wire format of an alarm sent by a Sitasys
// sensor through the stream (Figure 4). Location information is a
// hashed ZIP code (the production data was anonymized); device
// identity is the MAC/IP pair; sensor-specific fields (SensorType,
// SoftwareVersion) are the extra features that let classifiers detect
// technical faults and push accuracy above 90% (§5.3.4).
type Alarm struct {
	ID         int64      `json:"id"`
	DeviceMAC  string     `json:"deviceMac"`
	DeviceIP   string     `json:"deviceIp"`
	ZIP        string     `json:"zip"` // hashed ZIP code of the premise
	Timestamp  time.Time  `json:"timestamp"`
	Duration   float64    `json:"duration"` // seconds until reset
	Type       Type       `json:"alarmType"`
	ObjectType ObjectType `json:"objectType"`

	// Sensor-specific information (§5.1.1): "type of sensor,
	// software version, etc."
	SensorType      string `json:"sensorType"`
	SoftwareVersion string `json:"softwareVersion"`

	// Payload pads the message to realistic wire size (alarms are
	// "less than 1KB in size", §5.5.2).
	Payload string `json:"payload,omitempty"`
}

// HourOfDay returns the alarm's hour in [0,24).
func (a *Alarm) HourOfDay() int { return a.Timestamp.Hour() }

// DayOfWeek returns the alarm's weekday (0 = Sunday … 6 = Saturday).
func (a *Alarm) DayOfWeek() int { return int(a.Timestamp.Weekday()) }

// Label is the ground-truth (or heuristically inferred) class of an
// alarm.
type Label int

// The two classes of the verification problem.
const (
	False Label = iota // false alarm: no intervention needed
	True               // true alarm: intervention force required
)

// String returns "false" or "true".
func (l Label) String() string {
	if l == True {
		return "true"
	}
	return "false"
}

// LabeledAlarm is the generic training record of §6.1 ("Design for
// reusability"): categorical features that describe alarms regardless
// of the originating dataset, plus optional use-case specific
// categorical extras (for Sitasys: sensor type and software version).
// The London Fire Brigade and San Francisco datasets map onto the
// same record with Extras left empty.
type LabeledAlarm struct {
	Location     string  // ZIP code or location hash
	PropertyType string  // premise / property category
	HourOfDay    int     // 0..23
	DayOfWeek    int     // 0..6
	AlarmType    string  // incident type name
	Extras       []Extra // dataset-specific categorical features
	Risk         float64 // a-priori risk factor (hybrid approach); 0 if unused
	HasRisk      bool    // whether Risk participates as a feature
	Label        Label
}

// Extra is one named categorical feature value.
type Extra struct {
	Name  string
	Value string
}

// DurationLabel applies the paper's label heuristic (§5.1.1): an alarm
// reset within deltaT is considered false ("the owner immediately shut
// it off"); longer alarms are considered true.
func DurationLabel(duration time.Duration, deltaT time.Duration) Label {
	if duration < deltaT {
		return False
	}
	return True
}

// Verification is the output of the verification service for one
// alarm: the predicted class and the associated probability
// (confidence), which human ARC operators use to prioritize (§6.1
// "Provide probability of verification").
type Verification struct {
	AlarmID     int64   `json:"alarmId"`
	Predicted   Label   `json:"predicted"`
	Probability float64 `json:"probability"` // confidence of the predicted class
	ModelName   string  `json:"modelName"`
	LatencyMS   float64 `json:"latencyMs"`
}
