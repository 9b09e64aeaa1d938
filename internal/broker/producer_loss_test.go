package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSendsLoseNothing is the regression test for a silent
// record-loss race in the idempotent producer: sequence numbers used
// to be allocated under the producer mutex but appended outside it,
// so two sender threads could reach the partition log out of order
// and the log would "deduplicate" (drop) the lower sequence while
// acknowledging it. Every send that returns success must be in the
// log.
func TestConcurrentSendsLoseNothing(t *testing.T) {
	b := New()
	defer b.Close()
	topic, err := b.CreateTopic("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := NewProducer(topic)
	const (
		senders = 8
		perS    = 2_000
	)
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perS; i++ {
				// Few distinct keys: all senders hammer the same
				// partitions, maximizing append reordering pressure.
				key := []byte(fmt.Sprintf("k%d", i%8))
				if _, _, err := prod.SendAt(key, []byte("v"), time.Time{}); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for part := 0; part < topic.Partitions(); part++ {
		hw, err := topic.HighWatermark(part)
		if err != nil {
			t.Fatal(err)
		}
		total += hw
	}
	if want := int64(senders * perS); total != want {
		t.Fatalf("log holds %d records, %d acknowledged sends were silently dropped",
			total, want-total)
	}
}
