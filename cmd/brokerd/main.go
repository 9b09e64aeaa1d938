// Command brokerd runs one node of the replicated broker: the
// in-process broker (topics, partition logs, idempotent producers,
// consumer-group coordination) wrapped behind netbroker's framed TCP
// protocol. Remote alarmd processes produce into it and join their
// verification shards over the wire; the shards themselves run
// unmodified (see ARCHITECTURE.md, "Distributed deployment").
//
// Standalone (replication factor 1):
//
//	brokerd -addr 127.0.0.1:9301
//
// A replica set lists every node's address in a fixed order shared by
// all nodes — the list index is the node id. Node 0 leads epoch 1;
// followers pull the partition logs, appends acknowledge only at
// follower quorum, and when the leader dies the survivors elect a
// reconciled successor (no quorum-acked record is ever lost; see the
// delivery invariants in ARCHITECTURE.md):
//
//	brokerd -node 0 -addr 127.0.0.1:9301 -peers 127.0.0.1:9301,127.0.0.1:9302,127.0.0.1:9303
//	brokerd -node 1 -addr 127.0.0.1:9302 -peers 127.0.0.1:9301,127.0.0.1:9302,127.0.0.1:9303
//	brokerd -node 2 -addr 127.0.0.1:9303 -peers 127.0.0.1:9301,127.0.0.1:9302,127.0.0.1:9303
//
// -metrics serves the node's replication health — current epoch,
// leadership, failover count, per-follower replica lag in records — in
// Prometheus text format on /metrics, plus /healthz, which answers 503
// with the reason while the node is closed or knows no leader.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/metrics"
	"alarmverify/internal/netbroker"
)

type options struct {
	addr            string
	node            int
	peers           []string
	metricsAddr     string
	replInterval    time.Duration
	electionTimeout time.Duration
	ackTimeout      time.Duration
	sessionTimeout  time.Duration
}

var errFlagParse = errors.New("brokerd: invalid flags")

func parseOptions(args []string, output io.Writer) (options, error) {
	var o options
	var peers string
	fs := flag.NewFlagSet("brokerd", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9301", "TCP listen address for the broker protocol")
	fs.IntVar(&o.node, "node", 0, "this node's index into -peers (0 when standalone)")
	fs.StringVar(&peers, "peers", "",
		"comma-separated replica addresses, own address included, in the fixed order shared by all nodes (empty = standalone)")
	fs.StringVar(&o.metricsAddr, "metrics", "",
		"HTTP listen address for /metrics (Prometheus text) and /healthz (empty = no HTTP)")
	fs.DurationVar(&o.replInterval, "repl-interval", 0,
		"idle replication heartbeat: how long the leader holds a follower pull that has nothing to ship; "+
			"appends wake held pulls at once; must stay below half of -election-timeout (0 = default 5ms)")
	fs.DurationVar(&o.electionTimeout, "election-timeout", 0,
		"leader-silence tolerance before standing for election, staggered by node id (0 = default 750ms)")
	fs.DurationVar(&o.ackTimeout, "ack-timeout", 0, "append quorum-ack deadline (0 = default 5s)")
	fs.DurationVar(&o.sessionTimeout, "session-timeout", 0,
		"consumer-group member expiry without heartbeats; members heartbeat at a twentieth of it (0 = default 3s)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if peers != "" {
		for _, p := range strings.Split(peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				return options{}, fmt.Errorf("brokerd: -peers has an empty address")
			}
			o.peers = append(o.peers, p)
		}
	}
	switch {
	case len(o.peers) > 0 && (o.node < 0 || o.node >= len(o.peers)):
		return options{}, fmt.Errorf("brokerd: -node %d outside -peers (%d nodes)", o.node, len(o.peers))
	case len(o.peers) == 0 && o.node != 0:
		return options{}, fmt.Errorf("brokerd: -node %d without -peers", o.node)
	case o.replInterval < 0 || o.electionTimeout < 0 || o.ackTimeout < 0 || o.sessionTimeout < 0:
		return options{}, fmt.Errorf("brokerd: timeouts must be >= 0")
	}
	if err := o.server(nil).Validate(); err != nil {
		return options{}, fmt.Errorf("brokerd: %w", err)
	}
	return o, nil
}

// server maps the flags onto the node's netbroker options.
func (o options) server(repl *metrics.Replication) netbroker.Options {
	return netbroker.Options{
		NodeID:          o.node,
		Peers:           o.peers,
		ReplInterval:    o.replInterval,
		ElectionTimeout: o.electionTimeout,
		AckTimeout:      o.ackTimeout,
		SessionTimeout:  o.sessionTimeout,
		Repl:            repl,
	}
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o options) error {
	b := broker.New()
	defer b.Close()
	repl := metrics.NewReplication()
	srv, err := netbroker.NewServer(b, o.addr, o.server(repl))
	if err != nil {
		return err
	}
	defer srv.Close()
	if len(o.peers) > 0 {
		fmt.Printf("brokerd node %d of %d on %s (epoch %d, leader: %v)\n",
			o.node, len(o.peers), srv.Addr(), srv.Epoch(), srv.IsLeader())
	} else {
		fmt.Printf("brokerd standalone on %s\n", srv.Addr())
	}

	if o.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			repl.WriteProm(w)
		})
		mux.HandleFunc("/healthz", healthz(srv))
		msrv := &http.Server{Addr: o.metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "brokerd: metrics: %v\n", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("metrics on %s (/metrics /healthz)\n", o.metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	s := <-sig
	fmt.Printf("%s: shutting down\n", s)
	return nil
}

// healthz answers "ok" while the node can serve, and 503 with the
// reason once it is closed or knows no leader.
func healthz(srv *netbroker.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := srv.Health(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}
}
