package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
)

// ProducerApp is the §5.5.1 Producer application: it simulates a
// stream of new alarms by replaying test-set alarms into the broker
// as fast as it can, through a configurable serializer.
type ProducerApp struct {
	producer broker.RecordSender
	codec    codec.Codec
	// Threads is the number of concurrent sending goroutines; the
	// paper adds producer threads to saturate the consumer (§5.5.2).
	Threads int
	// EnqueueTimestamps stamps records with the broker's append time
	// instead of the alarms' synthetic event times. Live-serving
	// replays (cmd/alarmd) set it so the pipeline's end-to-end
	// (enqueue→commit) latency histogram measures real queueing delay
	// rather than the years since the replayed alarm "happened".
	EnqueueTimestamps bool
}

// NewProducerApp creates a producer over the topic with the given
// serializer.
func NewProducerApp(t *broker.Topic, c codec.Codec) *ProducerApp {
	return NewProducerAppFor(broker.NewProducer(t), c)
}

// NewProducerAppFor creates a producer over any record sender — the
// in-process broker producer or netbroker's wire producer — so a
// remote alarmd replays through the exact same application code.
func NewProducerAppFor(s broker.RecordSender, c codec.Codec) *ProducerApp {
	return &ProducerApp{
		producer: s,
		codec:    c,
		Threads:  1,
	}
}

// ReplayStats summarizes a replay run.
type ReplayStats struct {
	Sent      int
	Elapsed   time.Duration
	Bytes     int64
	PerSecond float64
}

// Replay serializes and sends all alarms as fast as the configured
// thread count allows. ratePerSec must be 0: paced load goes through
// internal/loadgen, and the parameter stays only because the benchmark
// harness still passes it.
func (p *ProducerApp) Replay(alarms []alarm.Alarm, ratePerSec int) (ReplayStats, error) {
	if ratePerSec != 0 {
		return ReplayStats{}, fmt.Errorf("core: Replay does not pace (rate %d/s); use internal/loadgen", ratePerSec)
	}
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	start := time.Now()
	var sent atomic.Int64
	var bytes atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	chunk := (len(alarms) + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if lo >= len(alarms) {
			break
		}
		if hi > len(alarms) {
			hi = len(alarms)
		}
		wg.Add(1)
		go func(batch []alarm.Alarm) {
			defer wg.Done()
			var buf []byte
			for i := range batch {
				var err error
				buf, err = p.codec.Marshal(buf[:0], &batch[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				val := make([]byte, len(buf))
				copy(val, buf)
				ts := batch[i].Timestamp
				if p.EnqueueTimestamps {
					ts = time.Time{} // zero: the broker stamps append time
				}
				if _, _, err := p.producer.SendAt([]byte(batch[i].DeviceMAC), val, ts); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				sent.Add(1)
				bytes.Add(int64(len(val)))
			}
		}(alarms[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	stats := ReplayStats{
		Sent:    int(sent.Load()),
		Elapsed: elapsed,
		Bytes:   bytes.Load(),
	}
	if elapsed > 0 {
		stats.PerSecond = float64(stats.Sent) / elapsed.Seconds()
	}
	if err, ok := firstErr.Load().(error); ok {
		return stats, err
	}
	return stats, nil
}
