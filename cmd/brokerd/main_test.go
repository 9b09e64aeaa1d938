package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/netbroker"
)

// TestParseOptionsReplInterval pins the heartbeat bound: the leader may
// hold a follower's pull for -repl-interval, so a value that is not
// well below -election-timeout (given or default) is refused at start.
func TestParseOptionsReplInterval(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-repl-interval", "100ms"},
		{"-repl-interval", "1s", "-election-timeout", "3s"},
	} {
		if _, err := parseOptions(args, io.Discard); err != nil {
			t.Errorf("args %v refused: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-repl-interval", "400ms"},
		{"-election-timeout", "8ms"},
		{"-repl-interval", "1s", "-election-timeout", "2s"},
	} {
		_, err := parseOptions(args, io.Discard)
		if err == nil {
			t.Errorf("args %v accepted, want error", args)
		} else if !strings.Contains(err.Error(), "ReplInterval") {
			t.Errorf("args %v: error %q does not name the interval", args, err)
		}
	}
}

// TestHealthz pins what /healthz answers: ok on a standalone node, 503
// with the reason once that node is closed, and 503 on node 0 of a
// replica set whose peers never answer — it leads epoch 1 at start, and
// steps down, knowing no leader, once the election timeout passes
// without a follower quorum.
func TestHealthz(t *testing.T) {
	get := func(srv *netbroker.Server) (int, string) {
		rec := httptest.NewRecorder()
		healthz(srv)(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	serve := func(o options) *netbroker.Server {
		b := broker.New()
		t.Cleanup(func() { b.Close() })
		srv, err := netbroker.NewServer(b, "127.0.0.1:0", o.server(nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}

	solo := serve(options{})
	if code, body := get(solo); code != http.StatusOK || body != "ok" {
		t.Fatalf("standalone node: %d %q, want 200 ok", code, body)
	}
	solo.Close()
	if code, body := get(solo); code != http.StatusServiceUnavailable || !strings.Contains(body, "closed") {
		t.Fatalf("closed node: %d %q, want 503 naming the close", code, body)
	}

	dead := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	const timeout = 100 * time.Millisecond
	start := time.Now()
	lone := serve(options{peers: []string{"127.0.0.1:0", dead(), dead()}, electionTimeout: timeout})
	for {
		code, body := get(lone)
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "no leader") {
				t.Fatalf("node without peers: 503 %q does not name the missing leader", body)
			}
			if waited := time.Since(start); waited < timeout {
				t.Fatalf("node without peers unhealthy after %s, before the %s election timeout", waited, timeout)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("node without peers: %d %q, want 200 or 503", code, body)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("node without peers still answers ok %s after start", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
