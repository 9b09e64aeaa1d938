package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustTopic(t *testing.T, b *Broker, name string, parts int) *Topic {
	t.Helper()
	tp, err := b.CreateTopic(name, parts)
	if err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	return tp
}

func TestCreateTopicValidation(t *testing.T) {
	b := New()
	if _, err := b.CreateTopic("alarms", 0); err == nil {
		t.Error("expected error for zero partitions")
	}
	mustTopic(t, b, "alarms", 4)
	if _, err := b.CreateTopic("alarms", 2); err == nil {
		t.Error("expected duplicate-topic error")
	}
	if _, err := b.Topic("missing"); err == nil {
		t.Error("expected unknown-topic error")
	}
}

func TestProduceFetchOrdering(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	p := NewProducer(tp)
	for i := 0; i < 100; i++ {
		if _, _, err := p.SendAt(nil, []byte(fmt.Sprintf("v%d", i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := tp.Fetch(0, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("got %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) {
			t.Fatalf("record %d has offset %d", i, r.Offset)
		}
		if string(r.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d out of order: %s", i, r.Value)
		}
	}
}

func TestKeyedPartitioningIsStable(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 8)
	p := NewProducer(tp)
	key := []byte("00:1b:44:11:3a:b7")
	first, _, err := p.SendAt(key, []byte("a"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		part, _, err := p.SendAt(key, []byte("b"), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if part != first {
			t.Fatalf("same key landed on partitions %d and %d", first, part)
		}
	}
}

func TestRoundRobinSpreadsKeylessRecords(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 4)
	p := NewProducer(tp)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		part, _, err := p.SendAt(nil, []byte("x"), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		counts[part]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("partition %d got %d records, want 100", i, c)
		}
	}
}

func TestIdempotentProducerDeduplicatesRetries(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	p := NewProducer(tp)
	recs := []Record{{Value: []byte("once")}}
	// Simulate a retry of the same batch (same producer, same seq).
	if _, err := tp.partitions[0].append(p.id, 0, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.partitions[0].append(p.id, 0, recs); err != nil {
		t.Fatal(err)
	}
	hw, _ := tp.HighWatermark(0)
	if hw != 1 {
		t.Fatalf("duplicate batch appended: high watermark %d, want 1", hw)
	}
}

func TestConsumerGroupRangeAssignment(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 6)
	c1, err := NewConsumer(b, "g", tp, "c1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConsumer(b, "g", tp, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, p := range append(c1.Assignment(), c2.Assignment()...) {
		if got[p] {
			t.Fatalf("partition %d assigned twice", p)
		}
		got[p] = true
	}
	if len(got) != 6 {
		t.Fatalf("assignment covers %d partitions, want 6", len(got))
	}
	if len(c1.Assignment()) != 3 || len(c2.Assignment()) != 3 {
		t.Fatalf("unbalanced assignment: %v / %v", c1.Assignment(), c2.Assignment())
	}
}

func TestPollAndCommitResume(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 2)
	p := NewProducer(tp)
	for i := 0; i < 20; i++ {
		if _, _, err := p.SendAt([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewConsumer(b, "g", tp, "c1")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for seen < 10 {
		recs, err := c.Poll(5, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen += len(recs)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: new consumer in the same group resumes from the
	// committed offsets and reads exactly the remainder.
	c.Close()
	c2, err := NewConsumer(b, "g", tp, "c2")
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	for {
		recs, err := c2.Poll(100, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		rest += len(recs)
	}
	if seen+rest != 20 {
		t.Fatalf("exactly-once violated: first consumer saw %d, successor saw %d, want total 20", seen, rest)
	}
}

func TestUncommittedProgressIsRedelivered(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	p := NewProducer(tp)
	for i := 0; i < 5; i++ {
		p.SendAt(nil, []byte{byte(i)}, time.Time{})
	}
	c, err := NewConsumer(b, "g", tp, "c1")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll(5, time.Second)
	if err != nil || len(recs) != 5 {
		t.Fatalf("poll: %v (%d records)", err, len(recs))
	}
	// No commit; successor must re-read everything.
	c.Close()
	c2, _ := NewConsumer(b, "g", tp, "c2")
	recs2, err := c2.Poll(5, time.Second)
	if err != nil || len(recs2) != 5 {
		t.Fatalf("successor should re-read uncommitted records, got %d", len(recs2))
	}
}

func TestStaleGenerationCommitRejected(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 2)
	c1, _ := NewConsumer(b, "g", tp, "c1")
	// A second consumer joining bumps the generation.
	if _, err := NewConsumer(b, "g", tp, "c2"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Commit(); err == nil {
		t.Error("commit with stale generation should fail")
	}
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Commit(); err != nil {
		t.Errorf("commit after refresh: %v", err)
	}
}

func TestPollBlocksUntilData(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	c, _ := NewConsumer(b, "g", tp, "c1")
	done := make(chan []Record, 1)
	go func() {
		recs, _ := c.Poll(1, 2*time.Second)
		done <- recs
	}()
	time.Sleep(20 * time.Millisecond)
	p := NewProducer(tp)
	p.SendAt(nil, []byte("wake"), time.Time{})
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "wake" {
			t.Fatalf("got %v", recs)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("poll did not wake on produce")
	}
}

func TestPollTimeout(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	c, _ := NewConsumer(b, "g", tp, "c1")
	start := time.Now()
	recs, err := c.Poll(1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Fatalf("expected nil records on timeout, got %v", recs)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("returned after %v, before timeout", elapsed)
	}
}

func TestLag(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 2)
	p := NewProducer(tp)
	for i := 0; i < 10; i++ {
		p.SendAt([]byte(fmt.Sprintf("k%d", i)), []byte("v"), time.Time{})
	}
	c, _ := NewConsumer(b, "g", tp, "c1")
	lag, err := c.Lag()
	if err != nil {
		t.Fatal(err)
	}
	if lag != 10 {
		t.Fatalf("lag = %d, want 10", lag)
	}
	c.Poll(4, time.Second)
	lag, _ = c.Lag()
	if lag != 6 {
		t.Fatalf("lag after poll = %d, want 6", lag)
	}
}

func TestCloseWakesConsumers(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	c, _ := NewConsumer(b, "g", tp, "c1")
	done := make(chan struct{})
	go func() {
		c.Poll(1, 10*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake blocked consumer")
	}
}

func TestConcurrentProducersNoLossNoDup(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 4)
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := NewProducer(tp)
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("p%d-%d", pid, i)
				if _, _, err := p.SendAt([]byte(key), []byte(key), time.Time{}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	seen := make(map[string]int)
	for part := 0; part < 4; part++ {
		recs, err := tp.Fetch(part, 0, producers*perProducer)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			seen[string(r.Value)]++
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("saw %d distinct records, want %d", len(seen), producers*perProducer)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("record %s appeared %d times", k, n)
		}
	}
}

func TestConcurrentGroupConsumptionCoversLog(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 4)
	p := NewProducer(tp)
	const total = 2000
	for i := 0; i < total; i++ {
		p.SendAt([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), time.Time{})
	}
	var consumers []*Consumer
	for i := 0; i < 4; i++ {
		c, err := NewConsumer(b, "g", tp, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		consumers = append(consumers, c)
	}
	for _, c := range consumers {
		if err := c.RefreshAssignment(); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := make(map[string]bool)
	var wg sync.WaitGroup
	for _, c := range consumers {
		wg.Add(1)
		go func(c *Consumer) {
			defer wg.Done()
			for {
				recs, err := c.Poll(100, 100*time.Millisecond)
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if len(recs) == 0 {
					return
				}
				mu.Lock()
				for _, r := range recs {
					if seen[string(r.Value)] {
						t.Errorf("duplicate %s", r.Value)
					}
					seen[string(r.Value)] = true
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("consumed %d records, want %d", len(seen), total)
	}
}

func TestPropertyPartitionerUniformAndStable(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 16)
	f := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		p1 := tp.partitionFor(key)
		p2 := tp.partitionFor(key)
		return p1 == p2 && p1 >= 0 && p1 < 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Uniformity over random device MACs.
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	const n = 16000
	for i := 0; i < n; i++ {
		mac := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256))
		counts[tp.partitionFor([]byte(mac))]++
	}
	for i, c := range counts {
		if c < n/16/2 || c > n/16*2 {
			t.Errorf("partition %d badly skewed: %d of %d", i, c, n)
		}
	}
}

func TestFetchInvalidOffset(t *testing.T) {
	b := New()
	tp := mustTopic(t, b, "alarms", 1)
	if _, err := tp.Fetch(0, -1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := tp.Fetch(0, 5, 10); err == nil {
		t.Error("offset past high watermark accepted")
	}
	if _, err := tp.Fetch(3, 0, 10); err == nil {
		t.Error("invalid partition accepted")
	}
}
