package dataset

import (
	"fmt"
	"strconv"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
)

// ToLabeled converts raw alarms into generic training records using
// the paper's duration-threshold label heuristic (§5.1.1): alarms
// reset within deltaT are labelled false. Every record keeps the
// Sitasys-specific sensor features (sensor type, software version)
// that push accuracy above 90 %; the transfer experiments (London, San
// Francisco) build generic records of their own (LFBToLabeled,
// SFToLabeled).
func ToLabeled(alarms []alarm.Alarm, deltaT time.Duration) []alarm.LabeledAlarm {
	out := make([]alarm.LabeledAlarm, len(alarms))
	for i := range alarms {
		a := &alarms[i]
		out[i] = alarm.LabeledAlarm{
			Location:     a.ZIP,
			PropertyType: a.ObjectType.String(),
			HourOfDay:    a.HourOfDay(),
			DayOfWeek:    a.DayOfWeek(),
			AlarmType:    a.Type.String(),
			Label:        alarm.DurationLabel(time.Duration(a.Duration*float64(time.Second)), deltaT),
			Extras: []alarm.Extra{
				{Name: "sensorType", Value: a.SensorType},
				{Name: "softwareVersion", Value: a.SoftwareVersion},
			},
		}
	}
	return out
}

// AttachRisk annotates records with the a-priori risk factor for
// their location (treated as a ZIP code), enabling the hybrid feature
// of §5.4.
func AttachRisk(labeled []alarm.LabeledAlarm, m *risk.Model, kind risk.Kind) {
	for i := range labeled {
		labeled[i].Risk = m.FactorByZIP(labeled[i].Location, kind)
		labeled[i].HasRisk = true
	}
}

// Encode fits an encoder on a set of labelled alarms and encodes them
// into serving rows of its layout, with their labels. All records must
// agree on their Extras schema and HasRisk flag.
func Encode(labeled []alarm.LabeledAlarm) (*ml.RowLayout, *ml.SparseRows, []int, error) {
	enc, rows, labels, err := fitEncoder(labeled)
	if err != nil {
		return nil, nil, nil, err
	}
	layout, err := enc.Layout()
	if err != nil {
		return nil, nil, nil, err
	}
	sr := new(ml.SparseRows)
	sr.Resize(layout, len(rows))
	for i, row := range rows {
		if err := enc.Transform(row, sr.Row(i)); err != nil {
			return nil, nil, nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
	}
	return layout, sr, labels, nil
}

// FitEncoder is Encode without the rows: the encoder fitted on the
// records' vocabularies, and their labels. The returned encoder
// transforms future alarms with the same schema (unseen categories map
// to a reserved slot); training encodes the alarms themselves with an
// AlarmEncoder bound to it, as serving does.
func FitEncoder(labeled []alarm.LabeledAlarm) (*ml.SchemaEncoder, []int, error) {
	enc, _, labels, err := fitEncoder(labeled)
	return enc, labels, err
}

// fitEncoder is what Encode and FitEncoder share: the encoder fitted on
// the records' rows, the rows and the labels.
func fitEncoder(labeled []alarm.LabeledAlarm) (*ml.SchemaEncoder, []ml.Row, []int, error) {
	if len(labeled) == 0 {
		return nil, nil, nil, ml.ErrEmptyDataset
	}
	first := &labeled[0]
	cols := []ml.ColumnSpec{
		{Name: "location"},
		{Name: "propertyType"},
		{Name: "hourOfDay"},
		{Name: "dayOfWeek"},
		{Name: "alarmType"},
	}
	for _, e := range first.Extras {
		cols = append(cols, ml.ColumnSpec{Name: e.Name})
	}
	if first.HasRisk {
		cols = append(cols, ml.ColumnSpec{Name: "risk", Numeric: true})
	}
	enc := ml.NewSchemaEncoder(cols)
	rows := make([]ml.Row, len(labeled))
	labels := make([]int, len(labeled))
	for i := range labeled {
		row, err := LabeledToRow(&labeled[i], len(first.Extras), first.HasRisk)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
		rows[i] = row
		labels[i] = int(labeled[i].Label)
	}
	if err := enc.Fit(rows); err != nil {
		return nil, nil, nil, err
	}
	return enc, rows, labels, nil
}

func hourCat(h int) string { return "h" + strconv.Itoa(h) }

func dayCat(d int) string { return "d" + strconv.Itoa(d) }

// The categorical columns every labelled alarm has, in the order Encode
// declares them and LabeledToRow fills them; a record's extras follow.
const (
	colLocation = iota
	colPropertyType
	colHourOfDay
	colDayOfWeek
	colAlarmType
	colExtras
)

// LabeledToRow converts one record into the encoder's row shape. The
// record must have exactly wantExtras extras and match wantRisk.
func LabeledToRow(la *alarm.LabeledAlarm, wantExtras int, wantRisk bool) (ml.Row, error) {
	if len(la.Extras) != wantExtras {
		return ml.Row{}, fmt.Errorf("record has %d extras, schema wants %d", len(la.Extras), wantExtras)
	}
	if la.HasRisk != wantRisk {
		return ml.Row{}, fmt.Errorf("record risk flag %v, schema wants %v", la.HasRisk, wantRisk)
	}
	row := ml.Row{Cats: make([]string, colExtras, colExtras+wantExtras)}
	row.Cats[colLocation] = la.Location
	row.Cats[colPropertyType] = la.PropertyType
	row.Cats[colHourOfDay] = hourCat(la.HourOfDay)
	row.Cats[colDayOfWeek] = dayCat(la.DayOfWeek)
	row.Cats[colAlarmType] = la.AlarmType
	for _, e := range la.Extras {
		row.Cats = append(row.Cats, e.Value)
	}
	if la.HasRisk {
		row.Nums = []float64{la.Risk}
	}
	return row, nil
}

// AlarmEncoder turns a live alarm into the serving row (ml.SparseRow)
// of an encoder FitEncoder fitted: the cells ToLabeled, LabeledToRow
// and SchemaEncoder.Transform would set, without the record or the
// strings in between. The fields with a fixed range — hour, weekday,
// alarm type, property type — resolve through tables filled once; the
// ZIP code and the sensor fields cost one vocabulary lookup each.
type AlarmEncoder struct {
	layout   *ml.RowLayout
	hour     [24]uint16
	day      [7]uint16
	typ      []uint16
	property []uint16
	extras   bool
	risk     *risk.Model
	riskKind risk.Kind
}

// NewAlarmEncoder binds enc to live alarms. extras says whether the
// encoder was fitted with the Sitasys sensor features (ToLabeled's
// records carry them; a loaded model's schema says), riskModel — nil
// for none — supplies the a-priori risk feature. An encoder with other
// columns than that schema has is refused with ml.ErrBadModelFile.
func NewAlarmEncoder(enc *ml.SchemaEncoder, extras bool, riskModel *risk.Model, kind risk.Kind) (*AlarmEncoder, error) {
	layout, err := enc.Layout()
	if err != nil {
		return nil, err
	}
	groups, nums := colExtras, 0
	if extras {
		groups += 2
	}
	if riskModel != nil {
		nums = 1
	}
	if layout.Groups() != groups || layout.Nums() != nums {
		return nil, fmt.Errorf("%w: encoder has %d categorical and %d numeric columns, the alarm schema %d and %d",
			ml.ErrBadModelFile, layout.Groups(), layout.Nums(), groups, nums)
	}
	e := &AlarmEncoder{layout: layout, extras: extras, risk: riskModel, riskKind: kind,
		typ:      make([]uint16, alarm.NumTypes()),
		property: make([]uint16, alarm.NumObjectTypes()),
	}
	for h := range e.hour {
		e.hour[h] = layout.Column(colHourOfDay, hourCat(h))
	}
	for d := range e.day {
		e.day[d] = layout.Column(colDayOfWeek, dayCat(d))
	}
	for t := range e.typ {
		e.typ[t] = layout.Column(colAlarmType, alarm.Type(t).String())
	}
	for o := range e.property {
		e.property[o] = layout.Column(colPropertyType, alarm.ObjectType(o).String())
	}
	return e, nil
}

// Layout returns the layout of the rows Encode fills.
func (e *AlarmEncoder) Layout() *ml.RowLayout { return e.layout }

// Encode fills row, which must have the layout's shape, from a.
//
//alarmvet:hotpath
func (e *AlarmEncoder) Encode(a *alarm.Alarm, row ml.SparseRow) {
	l, act := e.layout, row.Active
	act[colLocation] = l.Column(colLocation, a.ZIP)
	if o := a.ObjectType; uint(o) < uint(len(e.property)) {
		act[colPropertyType] = e.property[o]
	} else {
		act[colPropertyType] = l.Column(colPropertyType, o.String())
	}
	act[colHourOfDay] = e.hour[a.HourOfDay()]
	act[colDayOfWeek] = e.day[a.DayOfWeek()]
	if t := a.Type; uint(t) < uint(len(e.typ)) {
		act[colAlarmType] = e.typ[t]
	} else {
		act[colAlarmType] = l.Column(colAlarmType, t.String())
	}
	if e.extras {
		act[colExtras] = l.Column(colExtras, a.SensorType)
		act[colExtras+1] = l.Column(colExtras+1, a.SoftwareVersion)
	}
	if e.risk != nil {
		row.Nums[0] = e.risk.FactorByZIP(a.ZIP, e.riskKind)
	}
}
