package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/serve"
)

// span is one traced call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent indexes the span that caused
// this one (-1 for a root); Batch numbers the micro-batch in the serial
// stage pass, where the harness drives the stages and knows it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int64  `json:"batch"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer means
// tracing is off and every method is a no-op, so the wrappers below
// cost two clock reads and nothing else on an untraced run.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	// parent and batch are set by the serial stage pass around each
	// stage call, so spans recorded at the consumer seam underneath it
	// (broker.poll, broker.commit) hang off the right stage span.
	parent int
	batch  int64
}

func newTracer() *tracer { return &tracer{base: time.Now(), parent: -1} }

// add records a finished span under the current parent.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
		Parent: t.parent, Batch: t.batch,
	})
}

// open reserves a span that children will hang off, makes it the
// current parent and returns its index; close stamps its end and
// restores the previous parent.
func (t *tracer) open(name string, batch int64, start time.Time) (id, prev int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev = t.parent
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.base)), Parent: prev, Batch: batch})
	t.parent, t.batch = len(t.spans)-1, batch
	return t.parent, prev
}

func (t *tracer) close(id, prev int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(end.Sub(t.base))
	t.parent = prev
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// partTable is one partition's slice of the offset → due-time table.
type partTable struct {
	produced int64 // records the broker acknowledged
	next     int64 // first offset no commit has covered yet
	// due[off] is the record's due instant in ns since probe.base, plus
	// one so that zero means "not reported". Two producers share a
	// partition, so reports arrive out of offset order and the slice
	// grows to whichever offset shows up first.
	due []int64
	// early holds the commit instant of offsets a commit covered before
	// their send was reported (the producer was descheduled between the
	// broker's acknowledgement and its report).
	early map[int64]int64
}

// probe measures the program from outside, on the seams it already
// accepts: serve.Cluster / broker.GroupConsumer on the consume side and
// broker.RecordSender on the produce side. It keeps the offset → due
// table that turns a CommitOffsets return into exact per-record
// end-to-end latencies, counts what crossed each seam, and records
// spans when a tracer is attached.
type probe struct {
	base     time.Time
	tr       *tracer
	pollName string // span names at the consumer seam
	commName string
	sendName string

	mu    sync.Mutex
	parts []partTable
	// latency, when on, keeps a sample per record; preloaded drain
	// rounds turn it off and only count.
	latency   bool
	e2eMS     []float64 // due → covering commit returned
	e2eDue    []int64   // due instant of each e2e sample, ns since base
	sendMS    []float64 // SendAt call → return
	committed int64
	lastComm  time.Time
	target    int64
	reached   chan struct{}

	polls, emptyPolls, polled int64
	pollTime                  time.Duration // inside every poll, idle waits included
	fullPollTime              time.Duration // inside the polls that returned records
	commits                   int64
	commitTime                time.Duration
	sendTime                  time.Duration
}

func newProbe(partitions int, wire bool, tr *tracer) *probe {
	p := &probe{base: time.Now(), tr: tr, parts: make([]partTable, partitions),
		pollName: "broker.poll", commName: "broker.commit", sendName: "broker.send"}
	if wire {
		p.pollName, p.commName, p.sendName = "netbroker.fetch", "netbroker.commit", "netbroker.send"
	}
	for i := range p.parts {
		p.parts[i].early = make(map[int64]int64)
	}
	return p
}

// setLatency switches per-record sampling on or off and forgets the
// samples taken so far, so each phase reads only its own.
func (p *probe) setLatency(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency = on
	p.e2eMS, p.e2eDue, p.sendMS = nil, nil, nil
}

// sent reports one acknowledged record and its due instant.
func (p *probe) sent(part int, off int64, due, start, end time.Time, err error) {
	p.tr.add(p.sendName, start, end)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		return // the generator reports the error; nothing was produced
	}
	t := &p.parts[part]
	t.produced++
	p.sendTime += end.Sub(start)
	if !p.latency {
		return
	}
	p.sendMS = append(p.sendMS, ms(end.Sub(start)))
	dueNS := int64(due.Sub(p.base))
	if at, ok := t.early[off]; ok {
		delete(t.early, off)
		p.sample(dueNS, at)
		return
	}
	if int64(len(t.due)) <= off {
		t.due = append(t.due, make([]int64, off+1-int64(len(t.due)))...)
	}
	t.due[off] = dueNS + 1
}

func (p *probe) sample(dueNS, commitNS int64) {
	p.e2eMS = append(p.e2eMS, float64(commitNS-dueNS)/1e6)
	p.e2eDue = append(p.e2eDue, dueNS)
}

// covered reports a CommitOffsets call that returned without error:
// every offset below offsets[part] is now committed.
func (p *probe) covered(offsets map[int]int64, start, end time.Time) {
	p.tr.add(p.commName, start, end)
	at := int64(end.Sub(p.base))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commits++
	p.commitTime += end.Sub(start)
	for part, upto := range offsets {
		t := &p.parts[part]
		if upto <= t.next {
			continue
		}
		p.committed += upto - t.next
		if p.latency {
			for off := t.next; off < upto; off++ {
				if off < int64(len(t.due)) && t.due[off] != 0 {
					p.sample(t.due[off]-1, at)
				} else {
					t.early[off] = at
				}
			}
		}
		t.next = upto
	}
	p.lastComm = end
	if p.reached != nil && p.committed >= p.target {
		close(p.reached)
		p.reached = nil
	}
}

func (p *probe) polledRecords(start, end time.Time, n int) {
	p.tr.add(p.pollName, start, end)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	p.pollTime += end.Sub(start)
	p.polled += int64(n)
	if n == 0 {
		p.emptyPolls++
	} else {
		p.fullPollTime += end.Sub(start)
	}
}

// produced returns how many records the broker acknowledged in total.
func (p *probe) produced() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for i := range p.parts {
		n += p.parts[i].produced
	}
	return n
}

// awaitCommitted blocks until commits cover target records in total or
// the timeout passes, and returns how many are still uncovered and the
// instant of the last commit.
func (p *probe) awaitCommitted(target int64, timeout time.Duration) (missing int64, last time.Time) {
	p.mu.Lock()
	if p.committed < target {
		ch := make(chan struct{})
		p.target, p.reached = target, ch
		p.mu.Unlock()
		timer := time.NewTimer(timeout)
		select {
		case <-ch:
		case <-timer.C:
		}
		timer.Stop()
		p.mu.Lock()
		p.reached = nil
	}
	defer p.mu.Unlock()
	if p.committed < target {
		missing = target - p.committed
	}
	return missing, p.lastComm
}

// offsetsMatch checks the exactly-once bookkeeping against the broker's
// own view: the group's committed offset of every partition equals the
// number of records produced into it.
func (p *probe) offsetsMatch(committed map[int]int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for part := range p.parts {
		if got, want := committed[part], p.parts[part].produced; got != want {
			return fmt.Errorf("partition %d: committed offset %d, produced %d", part, got, want)
		}
	}
	return nil
}

// probeCluster hands the service consumers wrapped by the probe.
type probeCluster struct {
	serve.Cluster
	p *probe
}

func (c probeCluster) NewGroupConsumer(group, id string) (broker.GroupConsumer, int, error) {
	cons, n, err := c.Cluster.NewGroupConsumer(group, id)
	if err != nil {
		return nil, 0, err
	}
	return &probeConsumer{GroupConsumer: cons, p: c.p}, n, nil
}

// probeConsumer times the two calls the serving path makes on its
// consumer: the leased poll and the offset commit.
type probeConsumer struct {
	broker.GroupConsumer
	p *probe
}

func (c *probeConsumer) PollLeased(max int, timeout time.Duration, dst []broker.Record) ([]broker.Record, *broker.Lease, error) {
	start := time.Now()
	out, lease, err := c.GroupConsumer.PollLeased(max, timeout, dst)
	c.p.polledRecords(start, time.Now(), len(out)-len(dst))
	return out, lease, err
}

func (c *probeConsumer) CommitOffsets(offsets map[int]int64) error {
	start := time.Now()
	err := c.GroupConsumer.CommitOffsets(offsets)
	if err == nil {
		c.p.covered(offsets, start, time.Now())
	}
	return err
}

// probeSender reports every send with the timestamp it carried; the
// open-loop generators pass the record's due instant there.
type probeSender struct {
	inner broker.RecordSender
	p     *probe
}

func (s probeSender) SendAt(key, value []byte, ts time.Time) (int, int64, error) {
	start := time.Now()
	part, off, err := s.inner.SendAt(key, value, ts)
	s.p.sent(part, off, ts, start, time.Now(), err)
	return part, off, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
