package main

import (
	"fmt"
	"reflect"
	"sort"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
)

// verify runs the correctness checks that hold whenever a deployment is
// quiescent: exactly-once bookkeeping, bit-identical verdicts and, when
// asked, the operator's queries against a plain-loop reference.
func (r *run) verify(d *deployment, queries bool) {
	r.verifyCounts(d)
	r.check("verdicts", d.verdictsMatch())
	for _, err := range d.queryErrs {
		r.attempted++
		r.failed++
		r.check("query", err)
	}
	d.queryErrs = nil
	if queries {
		r.check("queries", d.queriesMatch())
	}
}

// verifyCounts checks exactly-once delivery from both ends: the group's
// committed offset of every partition equals the records produced into
// it, and the store holds its seed plus one document per record.
func (r *run) verifyCounts(d *deployment) {
	committed, err := d.svc.Committed()
	if err == nil {
		err = d.p.offsetsMatch(committed)
	}
	r.check("committed offsets", err)
	if got, want := d.history.Len(), d.seeded+len(d.sent); got != want {
		r.check("store", fmt.Errorf("holds %d alarms, want %d seeded + %d produced", got, d.seeded, len(d.sent)))
	}
	r.check("service", d.svc.Err())
}

// verdictsMatch compares what the service verified with
// Verifier.VerifyBatch over the same alarms as they come off the wire:
// one verdict per produced alarm, label and probability bit-identical.
func (d *deployment) verdictsMatch() error {
	got := make(map[int64]alarm.Verification, len(d.sent))
	for _, v := range d.svc.Verified() {
		if _, dup := got[v.AlarmID]; dup {
			return fmt.Errorf("alarm %d verified twice", v.AlarmID)
		}
		got[v.AlarmID] = v
	}
	if len(got) != len(d.sent) {
		return fmt.Errorf("%d alarms verified, %d produced", len(got), len(d.sent))
	}
	// The reference sees what the service saw: each alarm after a trip
	// through the codec. Chunks keep the feature matrix small.
	const chunk = 256
	cdc := codec.FastCodec{}
	decoded := make([]alarm.Alarm, 0, chunk)
	want := make([]alarm.Verification, chunk)
	var buf []byte
	for lo := 0; lo < len(d.sent); lo += chunk {
		hi := min(lo+chunk, len(d.sent))
		decoded = decoded[:0]
		for i := lo; i < hi; i++ {
			var err error
			if buf, err = cdc.Marshal(buf[:0], &d.sent[i]); err != nil {
				return err
			}
			var a alarm.Alarm
			if err := cdc.Unmarshal(buf, &a); err != nil {
				return err
			}
			decoded = append(decoded, a)
		}
		if err := d.e.verifier.VerifyBatchInto(decoded, want); err != nil {
			return err
		}
		for i, a := range decoded {
			g, w := got[a.ID], want[i]
			if g.Predicted != w.Predicted || g.Probability != w.Probability || g.ModelName != w.ModelName {
				return fmt.Errorf("alarm %d: service said %v %v, VerifyBatch says %v %v",
					a.ID, g.Predicted, g.Probability, w.Predicted, w.Probability)
			}
		}
	}
	return nil
}

// queriesMatch re-runs the operator's queries on the quiescent store
// and compares them with plain loops over the harness's own copy of
// what the store must hold.
func (d *deployment) queriesMatch() error {
	held := append(append([]alarm.Alarm(nil), d.e.train[:d.seeded]...), d.sent...)
	perDevice := make(map[string]int)
	perZIP := make(map[string]int)
	ids := make(map[int64]bool, len(held))
	for i := range held {
		perDevice[held[i].DeviceMAC]++
		perZIP[held[i].ZIP]++
		ids[held[i].ID] = true
	}

	zips, err := d.history.CountByLocation()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(zips, perZIP) {
		return fmt.Errorf("CountByLocation: %d locations differ from the reference's %d", len(zips), len(perZIP))
	}

	// Devices with equal counts may rank in either order, so compare the
	// counts rank by rank and each device against its own count.
	counts := make([]int, 0, len(perDevice))
	for _, n := range perDevice {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top, err := d.history.TopDevices(10)
	if err != nil {
		return err
	}
	if len(top) != min(10, len(counts)) {
		return fmt.Errorf("TopDevices(10): %d rows", len(top))
	}
	for i, row := range top {
		if row.Count != counts[i] || perDevice[row.Mac] != row.Count {
			return fmt.Errorf("TopDevices rank %d: %s × %d, reference rank holds %d and the device %d",
				i, row.Mac, row.Count, counts[i], perDevice[row.Mac])
		}
	}

	recent, err := d.history.RecentAlarms(100)
	if err != nil {
		return err
	}
	if len(recent) != min(100, len(held)) {
		return fmt.Errorf("RecentAlarms(100): %d rows", len(recent))
	}
	for _, a := range recent {
		if !ids[a.ID] {
			return fmt.Errorf("RecentAlarms: alarm %d was never stored", a.ID)
		}
		delete(ids, a.ID) // and appears once
	}

	mac := held[len(held)/2].DeviceMAC
	bars, err := d.history.DeviceHistogram(mac, histSince, histBucket)
	if err != nil {
		return err
	}
	got := make(map[int64]int)
	for _, b := range bars {
		got[b.Start.Unix()] = b.Count
	}
	want := histogramReference(held, mac)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("DeviceHistogram(%s): %d bars differ from the reference's %d", mac, len(got), len(want))
	}
	return nil
}

// histogramReference buckets one device's alarms by day from histSince,
// on the whole seconds the store keeps.
func histogramReference(held []alarm.Alarm, mac string) map[int64]int {
	out := make(map[int64]int)
	origin, width := histSince.Unix(), int64(histBucket.Seconds())
	for i := range held {
		ts := held[i].Timestamp.Unix()
		if held[i].DeviceMAC != mac || ts < origin {
			continue
		}
		out[origin+(ts-origin)/width*width]++
	}
	return out
}
