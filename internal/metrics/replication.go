package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Replication tracks a replicated broker node's role and health: the
// current epoch and leader, how many failovers this node has won, and
// each follower's replication lag (records appended on the leader but
// not yet acknowledged by that follower). brokerd renders it on
// /metrics next to the pipeline histograms; updates are lock-free on
// the hot path (the lag gauge takes a small mutex, updated once per
// replication round-trip, not per record).
type Replication struct {
	epoch     atomic.Int64
	leader    atomic.Int64
	isLeader  atomic.Bool
	failovers atomic.Int64

	mu  sync.Mutex
	lag map[int]int64
}

// NewReplication returns an empty replication metric set.
func NewReplication() *Replication {
	return &Replication{lag: make(map[int]int64)}
}

// SetRole records the node's current view: epoch, leader id and
// whether this node leads.
func (r *Replication) SetRole(epoch int64, leader int, isLeader bool) {
	r.epoch.Store(epoch)
	r.leader.Store(int64(leader))
	r.isLeader.Store(isLeader)
}

// AddFailover counts one won election (this node was promoted).
func (r *Replication) AddFailover() { r.failovers.Add(1) }

// SetReplicaLag records one follower's total replication lag in
// records, summed across all topic partitions.
func (r *Replication) SetReplicaLag(node int, lag int64) {
	r.mu.Lock()
	r.lag[node] = lag
	r.mu.Unlock()
}

// ReplicaLag snapshots the per-follower lag gauges.
func (r *Replication) ReplicaLag() map[int]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]int64, len(r.lag))
	for n, l := range r.lag {
		out[n] = l
	}
	return out
}

// WriteProm renders the replication metrics in the Prometheus text
// exposition format.
func (r *Replication) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# TYPE alarmverify_broker_epoch gauge\n")
	fmt.Fprintf(w, "alarmverify_broker_epoch %d\n", r.epoch.Load())
	fmt.Fprintf(w, "# TYPE alarmverify_broker_is_leader gauge\n")
	lead := 0
	if r.isLeader.Load() {
		lead = 1
	}
	fmt.Fprintf(w, "alarmverify_broker_is_leader %d\n", lead)
	fmt.Fprintf(w, "# TYPE alarmverify_broker_failovers_total counter\n")
	fmt.Fprintf(w, "alarmverify_broker_failovers_total %d\n", r.failovers.Load())
	lag := r.ReplicaLag()
	nodes := make([]int, 0, len(lag))
	for n := range lag {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	fmt.Fprintf(w, "# TYPE alarmverify_broker_replica_lag_records gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "alarmverify_broker_replica_lag_records{node=\"%d\"} %d\n", n, lag[n])
	}
}
