package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotonicAndInBounds(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{
		0, 1, 999, time.Microsecond, 2 * time.Microsecond, 7 * time.Microsecond,
		8 * time.Microsecond, 9 * time.Microsecond, 15 * time.Microsecond,
		16 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		time.Second, time.Minute, time.Hour, 24 * time.Hour, 365 * 24 * time.Hour,
	} {
		idx := bucketIndex(d)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%s) = %d out of [0,%d)", d, idx, numBuckets)
		}
		if idx < prev {
			t.Fatalf("bucketIndex(%s) = %d < previous %d: not monotone", d, idx, prev)
		}
		prev = idx
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		d := time.Duration(rng.Int63n(int64(48 * time.Hour)))
		idx := bucketIndex(d)
		low, high := bucketBounds(idx)
		if d < low || d >= high {
			t.Fatalf("%s mapped to bucket %d = [%s,%s)", d, idx, low, high)
		}
	}
}

func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms uniformly: p50 ≈ 500ms, p99 ≈ 990ms. Bucket width is
	// ≤ 12.5 %, so assert within 15 %.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.N != 1000 {
		t.Fatalf("count = %d, want 1000", s.N)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}} {
		got := s.Quantile(tc.q)
		lo := time.Duration(float64(tc.want) * 0.85)
		hi := time.Duration(float64(tc.want) * 1.15)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %s, want within [%s, %s]", tc.q, got, lo, hi)
		}
	}
	if mean := s.Mean(); mean < 450*time.Millisecond || mean > 550*time.Millisecond {
		t.Errorf("mean = %s, want ≈ 500ms", mean)
	}
	if max := s.Max(); max < time.Second || max > 1200*time.Millisecond {
		t.Errorf("max = %s, want just above 1s", max)
	}
}

func TestEmptySnapshot(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.N != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// TestConcurrentRecordSnapshot is the -race hammer: writers record
// while readers snapshot; afterwards the histogram must hold exactly
// the recorded observations.
func TestConcurrentRecordSnapshot(t *testing.T) {
	h := NewHistogram()
	const (
		writers = 8
		perW    = 5_000
		readers = 4
	)
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				// N is derived from the buckets, so a snapshot is
				// internally consistent at any point mid-hammer.
				var n uint64
				for _, c := range s.Counts {
					n += c
				}
				if n != s.N {
					t.Errorf("snapshot bucket total %d != N %d", n, s.N)
					return
				}
				if s.N > writers*perW {
					t.Errorf("snapshot N %d exceeds total recorded %d", s.N, writers*perW)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Record(time.Duration(w*perW+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if s := h.Snapshot(); s.N != writers*perW {
		t.Fatalf("final count %d, want %d", s.N, writers*perW)
	}
}

func TestPipelineSnapshotAndProm(t *testing.T) {
	p := NewPipeline()
	p.Stage(StageClassify).Record(3 * time.Millisecond)
	p.Stage(StageE2E).Record(40 * time.Millisecond)
	p.AddShed(17)
	ps := p.Snapshot()
	if ps.ShedRecords != 17 {
		t.Fatalf("shed = %d, want 17", ps.ShedRecords)
	}
	if ps.Stages[StageClassify].N != 1 || ps.Stages[StageE2E].N != 1 || ps.Stages[StageDecode].N != 0 {
		t.Fatalf("stage counts wrong: %+v", ps.Stages)
	}
	var sb strings.Builder
	ps.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		`alarmverify_stage_latency_seconds{stage="classify",quantile="0.99"}`,
		`alarmverify_stage_latency_seconds_count{stage="e2e"} 1`,
		"alarmverify_shed_records_total 17",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	var hb strings.Builder
	WritePromHistogram(&hb, "alarmverify_http_verify_latency_seconds", ps.Stages[StageClassify])
	if !strings.Contains(hb.String(), `alarmverify_http_verify_latency_seconds{quantile="0.5"}`) {
		t.Errorf("standalone histogram render wrong:\n%s", hb.String())
	}
	sum := ps.Stages[StageE2E].Summary()
	if sum.Count != 1 || sum.P99MS < 30 || sum.P99MS > 60 {
		t.Errorf("summary wrong: %+v", sum)
	}
}
