package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stalledPhase preloads read_hot against a server that stalls the first
// request of the measured phase for stall, then runs one open-loop phase at
// rate for dur over a single connection.
func stalledPhase(t *testing.T, stall time.Duration, rate float64, dur time.Duration) phaseResult {
	t.Helper()
	var armed, stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if armed.Load() && !stalled.Swap(true) {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	w, err := workloadByName("read_hot")
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(strings.TrimPrefix(srv.URL, "http://"), g, 1)
	defer r.close()
	if err := r.closedLoop(g.preload()); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	return r.run(rate, dur)
}

// TestLatencyChargedFromDueTime drives a server that stalls its first
// measured request. Open loop over one connection, every operation due
// during the stall must be charged the wait from its due time, and the
// generator must report itself late.
func TestLatencyChargedFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	p := stalledPhase(t, stall, 100, time.Second)
	if len(p.samples) < 50 {
		t.Fatalf("only %d samples", len(p.samples))
	}
	first := p.samples[0]
	if first.lat < stall {
		t.Fatalf("stalled op latency %v < stall %v", first.lat, stall)
	}
	charged := 0
	for _, s := range p.samples[1:] {
		if s.due >= first.due+stall {
			break
		}
		charged++
		// Due during the stall: sent only after it, so late by the rest
		// of the stall, and its latency includes that wait.
		if want := first.due + stall - s.due - 20*time.Millisecond; s.late < want {
			t.Fatalf("op due at %v: late %v, want ≥ %v", s.due, s.late, want)
		}
		if s.lat < s.late {
			t.Fatalf("op due at %v: latency %v below lateness %v", s.due, s.lat, s.late)
		}
	}
	if charged < 10 {
		t.Fatalf("only %d ops due during the stall", charged)
	}
	late := latencies(p.samples, anyOp, true)
	if q := quantile(late, 0.99); q < stall/2 {
		t.Fatalf("lateness p99 %v does not show the stall", q)
	}
}

// TestSkippedOpsChargedAtLowerBound stalls the only connection past the
// phase's end + sendGrace. The operations that could not be sent must be
// kept as skipped, each at a latency lower bound above the limit, and must
// set the phase's p99 instead of dropping out of it.
func TestSkippedOpsChargedAtLowerBound(t *testing.T) {
	const stall = 600 * time.Millisecond
	p := stalledPhase(t, stall, 100, 200*time.Millisecond)
	if len(p.skipped) < 5 {
		t.Fatalf("only %d skipped ops behind a %v stall", len(p.skipped), stall)
	}
	if p.due() != len(p.samples)+len(p.skipped) {
		t.Fatalf("due %d != %d sent + %d skipped", p.due(), len(p.samples), len(p.skipped))
	}
	for _, s := range p.skipped {
		if s.lat < sendGrace {
			t.Fatalf("skipped op due at %v charged %v < %v", s.due, s.lat, sendGrace)
		}
	}
	if q := quantile(dueLatencies(&p, anyOp, false), 0.99); q < sendGrace {
		t.Fatalf("p99 %v leaves out the skipped ops", q)
	}
}
