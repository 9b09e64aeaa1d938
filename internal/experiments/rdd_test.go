package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"alarmverify/internal/broker"
)

func testPool(t *testing.T, n int) *pool {
	t.Helper()
	p := newPool(n)
	t.Cleanup(p.close)
	return p
}

// fromSlice splits data into n contiguous partitions.
func fromSlice[T any](data []T, n int) *rdd[T] {
	parts := make([][]T, n)
	for i := range parts {
		parts[i] = data[i*len(data)/n : (i+1)*len(data)/n]
	}
	return fromPartitions(parts)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapFilter(t *testing.T) {
	pool := testPool(t, 4)
	r := fromSlice(ints(100), 4)
	doubled := mapRDD(r, func(v int) int { return v * 2 })
	even := filterRDD(doubled, func(v int) bool { return v%4 == 0 })
	got := even.collect(pool)
	if len(got) != 50 {
		t.Fatalf("count = %d, want 50", len(got))
	}
	for i, v := range got {
		if v != 4*i {
			t.Fatalf("element %d = %d, want %d", i, v, 4*i)
		}
	}
}

func TestLazinessAndCache(t *testing.T) {
	pool := testPool(t, 2)
	var computations atomic.Int64
	r := fromSlice(ints(8), 2)
	mapped := mapRDD(r, func(v int) int {
		computations.Add(1)
		return v
	})
	if computations.Load() != 0 {
		t.Fatal("transformation was eager; RDDs must be lazy")
	}
	// Two actions without cache: lineage recomputed (the §6.2 bug).
	mapped.collect(pool)
	mapped.collect(pool)
	if got := computations.Load(); got != 16 {
		t.Fatalf("uncached recompute: %d computations, want 16", got)
	}
	computations.Store(0)
	cached := mapped.cache()
	cached.collect(pool)
	cached.collect(pool)
	cached.collect(pool)
	if got := computations.Load(); got != 8 {
		t.Fatalf("cached: %d computations, want 8", got)
	}
}

func TestDistinct(t *testing.T) {
	pool := testPool(t, 4)
	data := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		data = append(data, fmt.Sprintf("mac-%d", i%17))
	}
	r := fromSlice(data, 4)
	if got := len(distinct(r, func(s string) string { return s }, pool)); got != 17 {
		t.Errorf("distinct = %d, want 17", got)
	}
}

func TestPoolRunParallelism(t *testing.T) {
	pool := testPool(t, 4)
	var mu sync.Mutex
	var inFlight, maxInFlight int
	pool.run(4, func(int) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if maxInFlight < 2 {
		t.Errorf("partitions did not overlap (max in flight %d)", maxInFlight)
	}
}

func TestSerialPoolProcessesSequentially(t *testing.T) {
	pool := testPool(t, 1)
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	pool.run(4, func(int) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if maxInFlight != 1 {
		t.Errorf("serial pool overlapped work: max in flight %d", maxInFlight)
	}
}

func TestBrokerSourceDirectMapping(t *testing.T) {
	b := broker.New()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer(topic)
	for i := 0; i < 200; i++ {
		prod.SendAt([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), time.Time{})
	}
	cons, err := broker.NewConsumer(b, "g", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	src := newBrokerSource(cons, topic)
	batch, err := src.batch()
	if err != nil {
		t.Fatal(err)
	}
	if batch.parts != 4 {
		t.Fatalf("rdd partitions = %d, want 4 (direct mapping)", batch.parts)
	}
	if got := len(batch.collect(testPool(t, 4))); got != 200 {
		t.Fatalf("batch count = %d, want 200", got)
	}
	// Records inside one rdd partition must come from one broker
	// partition, in offset order.
	for part := 0; part < batch.parts; part++ {
		recs := batch.partition(part)
		for i, r := range recs {
			if r.Partition != part {
				t.Errorf("partition %d holds record from broker partition %d", part, r.Partition)
			}
			if i > 0 && r.Offset != recs[i-1].Offset+1 {
				t.Errorf("offsets out of order in partition %d", part)
			}
		}
	}
}

func TestBrokerSourceBackpressure(t *testing.T) {
	b := broker.New()
	topic, _ := b.CreateTopic("alarms", 1)
	prod := broker.NewProducer(topic)
	for i := 0; i < 100; i++ {
		prod.SendAt(nil, []byte("x"), time.Time{})
	}
	cons, _ := broker.NewConsumer(b, "g", topic, "c1")
	src := newBrokerSource(cons, topic)
	src.maxPerBatch = 30
	pool := testPool(t, 1)
	sizes := []int{}
	for i := 0; i < 4; i++ {
		batch, err := src.batch()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(batch.collect(pool)))
	}
	want := []int{30, 30, 30, 10}
	for i, w := range want {
		if sizes[i] != w {
			t.Errorf("batch %d size = %d, want %d", i, sizes[i], w)
		}
	}
}

func TestPropertyTransformationsPreserveMultiset(t *testing.T) {
	pool := testPool(t, 4)
	f := func(seed int64, nParts uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nParts%7) + 1
		data := make([]int, 50+r.Intn(100))
		for i := range data {
			data[i] = r.Intn(20)
		}
		in := fromSlice(data, n)
		// identity map keeps multiset
		got := mapRDD(in, func(v int) int { return v }).collect(pool)
		if len(got) != len(data) {
			return false
		}
		counts := map[int]int{}
		for _, v := range data {
			counts[v]++
		}
		for _, v := range got {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistinctMatchesMap(t *testing.T) {
	pool := testPool(t, 4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]int, 100)
		for i := range data {
			data[i] = r.Intn(15)
		}
		want := map[int]bool{}
		for _, v := range data {
			want[v] = true
		}
		got := distinct(fromSlice(data, 3), func(v int) int { return v }, pool)
		if len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
