// Package chaos holds the distributed chaos harness: a multi-process
// end-to-end run that boots a brokerd replica set plus remote alarmd
// shard processes from built binaries, drives a flash-crowd burst over
// the wire, SIGKILLs the broker leader mid-burst, and asserts the
// delivery contract — zero lost acked alarms, bounded ack p99 through
// the failover, and full pipeline drain on the successor leader.
//
// The test is env-gated: it runs only when ALARMVERIFY_DIST_BIN names
// a directory holding the brokerd and alarmd binaries (`make
// test-distributed` builds them and sets it). Process logs land in
// ALARMVERIFY_DIST_ARTIFACTS (default: the test temp dir) so CI can
// upload them on failure.
package chaos

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/dataset"
	"alarmverify/internal/loadgen"
	"alarmverify/internal/netbroker"
)

const (
	partitions  = 8
	burstRate   = 400 // alarms/s base; the flash preset spikes above it
	burstFor    = 12 * time.Second
	killAfter   = 4 * time.Second
	ackP99Bound = 5 * time.Second
)

// ack is one acked record in the producer's ledger: where the broker
// said it landed, a payload checksum, and how long the quorum ack took.
type ack struct {
	part int
	off  int64
	sum  uint32
	lat  time.Duration
}

// ledgerSender wraps the wire producer and records every acked send.
// Only acked sends enter the ledger — the zero-loss contract covers
// exactly the records the broker acknowledged.
type ledgerSender struct {
	inner broker.RecordSender

	mu   sync.Mutex
	acks []ack
}

func (l *ledgerSender) SendAt(key, value []byte, ts time.Time) (int, int64, error) {
	start := time.Now()
	part, off, err := l.inner.SendAt(key, value, ts)
	if err != nil {
		return part, off, err
	}
	l.mu.Lock()
	l.acks = append(l.acks, ack{part: part, off: off, sum: crc32.ChecksumIEEE(value), lat: time.Since(start)})
	l.mu.Unlock()
	return part, off, nil
}

func (l *ledgerSender) snapshot() []ack {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ack, len(l.acks))
	copy(out, l.acks)
	return out
}

// freeAddrs reserves n loopback addresses by briefly listening.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// proc is one child process with its log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
}

func startProc(t *testing.T, artifacts, name, bin string, args ...string) *proc {
	t.Helper()
	logf, err := os.Create(filepath.Join(artifacts, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start %s: %v", name, err)
	}
	t.Logf("started %s (pid %d): %s %s", name, cmd.Process.Pid, bin, strings.Join(args, " "))
	return &proc{name: name, cmd: cmd, log: logf}
}

// kill SIGKILLs the process (no cleanup, the chaos event) and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.log.Close()
}

// stop SIGTERMs the process and waits for a graceful exit.
func (p *proc) stop(t *testing.T, timeout time.Duration) error {
	t.Helper()
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not exit within %s of SIGTERM", p.name, timeout)
	}
}

// leaderIndex probes the brokerd metrics endpoints for the node
// reporting alarmverify_broker_is_leader 1.
func leaderIndex(metricsAddrs []string, skip int) int {
	client := &http.Client{Timeout: time.Second}
	for i, addr := range metricsAddrs {
		if i == skip {
			continue
		}
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if strings.Contains(string(body), "alarmverify_broker_is_leader 1") {
			return i
		}
	}
	return -1
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDistributedChaos(t *testing.T) {
	binDir := os.Getenv("ALARMVERIFY_DIST_BIN")
	if binDir == "" {
		t.Skip("set ALARMVERIFY_DIST_BIN to a directory holding brokerd and alarmd (make test-distributed)")
	}
	artifacts := os.Getenv("ALARMVERIFY_DIST_ARTIFACTS")
	if artifacts == "" {
		artifacts = t.TempDir()
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Logf("process logs in %s", artifacts)

	// --- boot the 3-node replica set ---
	brokerAddrs := freeAddrs(t, 3)
	metricsAddrs := freeAddrs(t, 3)
	peers := strings.Join(brokerAddrs, ",")
	var brokerds [3]*proc
	for i := 0; i < 3; i++ {
		brokerds[i] = startProc(t, artifacts, fmt.Sprintf("brokerd-%d", i),
			filepath.Join(binDir, "brokerd"),
			"-node", fmt.Sprint(i), "-addr", brokerAddrs[i], "-peers", peers,
			"-metrics", metricsAddrs[i],
			"-repl-interval", "1ms", "-election-timeout", "300ms", "-session-timeout", "2s")
	}
	alive := func(skip int) []*proc {
		var out []*proc
		for i, p := range brokerds {
			if i != skip && p != nil {
				out = append(out, p)
			}
		}
		return out
	}
	defer func() {
		for _, p := range alive(-1) {
			p.kill()
		}
	}()

	var cl *netbroker.Client
	waitFor(t, 15*time.Second, "replica set reachable", func() bool {
		c, err := netbroker.Dial(brokerAddrs, "alarms", netbroker.ClientOptions{})
		if err != nil {
			return false
		}
		cl = c
		return true
	})
	defer cl.Close()
	if _, err := cl.EnsureTopic(partitions); err != nil {
		t.Fatal(err)
	}
	// The audit group joins now and commits nothing, so the leader keeps
	// every record (a group with no commit holds the log start at 0) and
	// a successor, whose log start follows the leader's, keeps them too.
	hold, _, err := cl.NewGroupConsumer("chaos-audit", "auditor")
	if err != nil {
		t.Fatal(err)
	}
	hold.Close()

	// --- boot two remote shard processes ---
	alarmdArgs := []string{
		"-broker-addr", peers, "-produce=false",
		"-partitions", fmt.Sprint(partitions), "-shards", "2",
		"-train", "2000", "-duration", "5m", "-interval", "10ms",
	}
	shardA := startProc(t, artifacts, "alarmd-a", filepath.Join(binDir, "alarmd"), alarmdArgs...)
	shardB := startProc(t, artifacts, "alarmd-b", filepath.Join(binDir, "alarmd"), alarmdArgs...)
	shardsStopped := false
	defer func() {
		if !shardsStopped {
			shardA.kill()
			shardB.kill()
		}
	}()

	prod, err := cl.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	led := &ledgerSender{inner: prod}

	world := dataset.NewWorld(7)
	dcfg := dataset.DefaultSitasysConfig()
	dcfg.NumAlarms = 30_000
	dcfg.PayloadBytes = 0
	alarms := dataset.GenerateSitasys(world, dcfg)

	// Readiness gate: committed offsets appear only once records flow,
	// so probe every partition with real alarms through the ledger and
	// wait for the alarmd group to commit on all of them — proof the
	// shard processes joined and the pipeline verifies end to end.
	var enc codec.FastCodec
	covered := map[int]bool{}
	for i := 0; len(covered) < partitions && i < len(alarms); i++ {
		val, err := enc.Marshal(nil, &alarms[i])
		if err != nil {
			t.Fatal(err)
		}
		part, _, err := led.SendAt([]byte(alarms[i].DeviceMAC), val, time.Now())
		if err != nil {
			t.Fatalf("probe send: %v", err)
		}
		covered[part] = true
	}
	if len(covered) < partitions {
		t.Fatalf("probe covered only %d of %d partitions", len(covered), partitions)
	}
	waitFor(t, 120*time.Second, "alarmd group commits on every partition", func() bool {
		offs, err := cl.GroupCommitted("alarmd")
		if err != nil {
			return false
		}
		live := 0
		for _, off := range offs {
			if off > 0 {
				live++
			}
		}
		return live == partitions
	})
	t.Log("shard processes joined; pipeline verifying on all partitions")
	lcfg, err := loadgen.Preset("flash", burstRate, burstFor)
	if err != nil {
		t.Fatal(err)
	}
	lcfg.Seed = 7
	stream, err := loadgen.NewStream(lcfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	driver := &loadgen.Driver{Sink: loadgen.NewSenderSink(led, codec.FastCodec{}), Workers: 16}
	statsc := make(chan loadgen.Stats, 1)
	go func() { statsc <- driver.RunStream(stream) }()

	// --- SIGKILL the leader mid-burst ---
	time.Sleep(killAfter)
	lead := leaderIndex(metricsAddrs, -1)
	if lead < 0 {
		t.Fatal("no brokerd reports leadership")
	}
	t.Logf("SIGKILL leader brokerd-%d mid-burst", lead)
	brokerds[lead].kill()
	brokerds[lead] = nil

	stats := <-statsc
	t.Logf("burst done: scheduled=%d sent=%d errors=%d elapsed=%s",
		stats.Scheduled, stats.Sent, stats.Errors, stats.Elapsed.Round(time.Millisecond))
	acks := led.snapshot()
	if len(acks) == 0 {
		t.Fatal("burst acked nothing")
	}

	// A successor must have taken over.
	newLead := -1
	waitFor(t, 15*time.Second, "successor leader elected", func() bool {
		newLead = leaderIndex(metricsAddrs, lead)
		return newLead >= 0
	})
	t.Logf("brokerd-%d leads after failover", newLead)

	// --- bounded ack latency through the failover ---
	lats := make([]time.Duration, len(acks))
	for i, a := range acks {
		lats[i] = a.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)*50/100]
	p99 := lats[len(lats)*99/100]
	max := lats[len(lats)-1]
	t.Logf("ack latency over %d acked sends: p50=%s p99=%s max=%s",
		len(acks), p50.Round(time.Microsecond), p99.Round(time.Millisecond), max.Round(time.Millisecond))
	if p99 > ackP99Bound {
		t.Errorf("ack p99 %s exceeds the %s bound through failover", p99, ackP99Bound)
	}

	// --- zero lost acked alarms: re-read every partition from the
	// successor via a fresh audit group and match the ledger. The audit
	// group joined before the first record, so it holds every log at
	// offset 0 and the sweep reads each acked record ---
	audit, _, err := cl.NewGroupConsumer("chaos-audit", "auditor")
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	type slot struct {
		part int
		off  int64
	}
	seen := make(map[slot]uint32)
	waitFor(t, 60*time.Second, "audit re-read covers the ledger", func() bool {
		recs, lease, err := audit.PollLeased(512, 100*time.Millisecond, nil)
		for _, r := range recs {
			seen[slot{r.Partition, r.Offset}] = crc32.ChecksumIEEE(r.Value)
		}
		lease.Release()
		return err == nil && len(seen) >= len(acks)
	})
	lost := 0
	for _, a := range acks {
		sum, ok := seen[slot{a.part, a.off}]
		if !ok {
			lost++
			t.Errorf("acked record lost: partition %d offset %d absent after failover", a.part, a.off)
			continue
		}
		if sum != a.sum {
			lost++
			t.Errorf("acked record corrupted: partition %d offset %d checksum %08x, acked %08x",
				a.part, a.off, sum, a.sum)
		}
		if lost > 10 {
			t.Fatalf("more than 10 acked records lost; aborting the ledger sweep")
		}
	}
	t.Logf("ledger sweep: all %d acked records present on the successor", len(acks))

	// --- the shard pipeline drains everything on the successor ---
	var total int64
	for _, off := range audit.PositionsInto(nil) {
		total += off
	}
	waitFor(t, 120*time.Second, "alarmd group commits the full log", func() bool {
		offs, err := cl.GroupCommitted("alarmd")
		if err != nil {
			return false
		}
		var sum int64
		for _, off := range offs {
			sum += off
		}
		return sum >= total
	})
	t.Logf("alarmd group committed all %d records across the failover", total)

	// --- graceful shutdown of both shard processes ---
	shardsStopped = true
	if err := shardA.stop(t, 60*time.Second); err != nil {
		t.Errorf("alarmd-a: %v", err)
	}
	if err := shardB.stop(t, 60*time.Second); err != nil {
		t.Errorf("alarmd-b: %v", err)
	}
}
