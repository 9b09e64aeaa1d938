package core

import (
	"container/heap"
	"sync"
	"time"

	"alarmverify/internal/alarm"
)

// Route says where an alarm goes after verification (§3): alarms
// likely false go to the customer's phone first ("My Security
// Center"); alarms likely true — and technical alarms the customer
// opted out of — go straight to the Alarm Receiving Center.
type Route int

// Routing decisions.
const (
	// RouteToCustomer sends the alarm to the owner's mobile first.
	RouteToCustomer Route = iota
	// RouteToARC forwards the alarm to the monitoring center.
	RouteToARC
	// RouteSuppressed drops the alarm entirely (e.g. technical alarms
	// the customer disabled).
	RouteSuppressed
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteToCustomer:
		return "customer"
	case RouteToARC:
		return "arc"
	default:
		return "suppressed"
	}
}

// CustomerPolicy is one customer's "My Security Center"
// configuration: the probability threshold above which alarms go
// straight to the ARC, and whether technical alarms are forwarded at
// all.
type CustomerPolicy struct {
	// TrueThreshold: an alarm classified true with at least this
	// confidence bypasses the customer and goes to the ARC.
	TrueThreshold float64
	// SuppressTechnical drops technical alarms (connection loss etc.)
	// instead of transmitting them.
	SuppressTechnical bool
}

// DefaultCustomerPolicy is a conservative default: only confident
// true alarms bypass the customer.
func DefaultCustomerPolicy() CustomerPolicy {
	return CustomerPolicy{TrueThreshold: 0.75}
}

// Decide routes a verified alarm under the policy.
func (p CustomerPolicy) Decide(a *alarm.Alarm, v alarm.Verification) Route {
	if a.Type == alarm.TypeTechnical && p.SuppressTechnical {
		return RouteSuppressed
	}
	if v.Predicted == alarm.True && v.Probability >= p.TrueThreshold {
		return RouteToARC
	}
	return RouteToCustomer
}

// PrioritizedAlarm is an alarm queued for a human ARC operator,
// ordered by the probability that it is true (§3: "the probability
// for true and false alarms can be used by the monitoring center in
// order to effectively prioritize alarms").
type PrioritizedAlarm struct {
	Alarm        alarm.Alarm
	Verification alarm.Verification
	EnqueuedAt   time.Time
}

// priority orders by P(true) descending, then by arrival time.
func (p *PrioritizedAlarm) priority() float64 {
	if p.Verification.Predicted == alarm.True {
		return p.Verification.Probability
	}
	return 1 - p.Verification.Probability
}

// OperatorQueue is a concurrency-safe priority queue for ARC
// operators: the most-likely-true alarm is always dequeued first, so
// spikes of messages (large events, §3) are handled best-first.
type OperatorQueue struct {
	mu sync.Mutex
	h  alarmHeap
}

// NewOperatorQueue creates an empty queue.
func NewOperatorQueue() *OperatorQueue { return &OperatorQueue{} }

// Push enqueues a verified alarm.
func (q *OperatorQueue) Push(a alarm.Alarm, v alarm.Verification) {
	q.mu.Lock()
	heap.Push(&q.h, &PrioritizedAlarm{Alarm: a, Verification: v, EnqueuedAt: time.Now()})
	q.mu.Unlock()
}

// Pop dequeues the highest-priority alarm; ok is false when empty.
func (q *OperatorQueue) Pop() (*PrioritizedAlarm, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.h.Len() == 0 {
		return nil, false
	}
	return heap.Pop(&q.h).(*PrioritizedAlarm), true
}

// Len returns the queue size.
func (q *OperatorQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len()
}

type alarmHeap []*PrioritizedAlarm

func (h alarmHeap) Len() int { return len(h) }
func (h alarmHeap) Less(i, j int) bool {
	pi, pj := h[i].priority(), h[j].priority()
	if pi != pj {
		return pi > pj
	}
	return h[i].EnqueuedAt.Before(h[j].EnqueuedAt)
}
func (h alarmHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *alarmHeap) Push(x any)   { *h = append(*h, x.(*PrioritizedAlarm)) }
func (h *alarmHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
