package core

import (
	"errors"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// pollCounter is a GroupConsumer over one queue of records that counts
// its polls. A poll takes what is queued up to its ask, as both real
// consumers do; fail makes the next poll return its records beside an
// error.
type pollCounter struct {
	queued int
	pos    int64
	polls  int
	asks   []int
	fail   error
	leases broker.LeasePool
}

func (p *pollCounter) PollLeased(max int, _ time.Duration, dst []broker.Record) ([]broker.Record, *broker.Lease, error) {
	p.polls++
	p.asks = append(p.asks, max)
	err := p.fail
	p.fail = nil
	n := min(max, p.queued)
	if n == 0 {
		return dst, broker.NoLease(), err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, broker.Record{Offset: p.pos, Value: []byte("{}")})
		p.pos++
	}
	p.queued -= n
	lease, _ := p.leases.Lend(nil)
	return dst, lease, err
}

func (p *pollCounter) CommitOffsets(map[int]int64) error { return nil }

func (p *pollCounter) PositionsInto(dst map[int]int64) map[int]int64 {
	if dst == nil {
		dst = make(map[int]int64, 1)
	}
	dst[0] = p.pos
	return dst
}

func (p *pollCounter) Lag() (int64, error)           { return int64(p.queued), nil }
func (p *pollCounter) Rebalances() <-chan struct{}   { return nil }
func (p *pollCounter) RefreshAssignment() error      { return nil }
func (p *pollCounter) Assignment() []int             { return []int{0} }
func (p *pollCounter) LeaseStats() broker.LeaseStats { return p.leases.Stats() }
func (p *pollCounter) Close()                        {}

// drainApp is a consumer app over p that drains at most maxPerBatch
// records a batch.
func drainApp(p *pollCounter, maxPerBatch int) *ConsumerApp {
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = maxPerBatch
	cfg.PollTimeout = time.Millisecond
	return NewConsumerAppFor(p, 1, nil, nil, cfg)
}

// TestDrainStopsAtShortPoll: a drain ends at the first poll that
// returns fewer records than it asked for — a consumer's poll sweeps
// every partition up to the ask, so a second poll would find only what
// arrived during the first one's round trip. A full poll asked for the
// batch's whole remainder, so it fills the batch to MaxPerBatch and the
// backlog goes on in the next drain; a poll error ends the drain with
// what the poll returned.
func TestDrainStopsAtShortPoll(t *testing.T) {
	drain := func(t *testing.T, app *ConsumerApp, p *pollCounter, wantRecs, wantPolls int) {
		t.Helper()
		p.polls, p.asks = 0, p.asks[:0]
		b := app.Drain()
		if len(b.recs) != wantRecs || p.polls != wantPolls {
			t.Fatalf("drain took %d records in %d polls asking %v; want %d records in %d polls",
				len(b.recs), p.polls, p.asks, wantRecs, wantPolls)
		}
		if b.Offsets[0] != p.pos {
			t.Fatalf("drain snapshot offset %d, consumer at %d", b.Offsets[0], p.pos)
		}
		app.ReleaseBatch(b)
		if n := p.leases.Stats().Active; n != 0 {
			t.Fatalf("%d leases out after ReleaseBatch", n)
		}
	}

	t.Run("short poll ends the drain", func(t *testing.T) {
		p := &pollCounter{queued: 3}
		app := drainApp(p, 8)
		drain(t, app, p, 3, 1)
		drain(t, app, p, 0, 1) // idle: the one parked poll comes back empty
	})
	t.Run("full poll fills the batch", func(t *testing.T) {
		p := &pollCounter{queued: 20}
		app := drainApp(p, 8)
		drain(t, app, p, 8, 1)
		if p.asks[0] != 8 {
			t.Fatalf("the poll asked for %d records, want the batch's 8", p.asks[0])
		}
		drain(t, app, p, 8, 1)
		drain(t, app, p, 4, 1)
	})
	t.Run("unbounded drain takes the backlog in one poll", func(t *testing.T) {
		p := &pollCounter{queued: 600}
		app := drainApp(p, 0)
		drain(t, app, p, 600, 1)
		p.queued = 5
		drain(t, app, p, 5, 1)
	})
	t.Run("poll error ends the drain", func(t *testing.T) {
		p := &pollCounter{queued: 2}
		app := drainApp(p, 4)
		p.fail = errors.New("fetch failed")
		drain(t, app, p, 2, 1) // the records beside the error stay in the batch, under its lease
		p.fail, p.queued = errors.New("fetch failed"), 0
		drain(t, app, p, 0, 1)
	})
}
