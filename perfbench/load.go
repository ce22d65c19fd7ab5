package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one operation of a phase, attempted or skipped.
type sample struct {
	kind opKind
	seq  int           // index among the operations the phase consumed
	due  time.Duration // due time, from the phase start
	lat  time.Duration // completion − due time; for a skipped op, a lower bound
	late time.Duration // send − due time
	ok   bool
}

// sendGrace is how long after a phase's end an operation due inside it may
// still be sent. One that would be sent later is at least that late: it is
// skipped, and its latency is charged at that lower bound, which is above
// the latency limit.
const sendGrace = time.Duration(p99LimitMs * float64(time.Millisecond))

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	samples []sample // attempted operations, in dispatch order
	skipped []sample // due inside the phase but not sent by its end + sendGrace
	voided  int      // reads and deletes of streams that were never created
	errors  []string // first few failure descriptions
}

// due counts the operations due inside the phase, sent or skipped.
func (p *phaseResult) due() int { return len(p.samples) + len(p.skipped) }

// consumed counts the generated operations the phase used up: sent,
// skipped or voided. A replay of the same seed skips this many.
func (p *phaseResult) consumed() int { return p.due() + p.voided }

// failed counts failed attempts.
func (p *phaseResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// runner drives a generator's operations against one server, open loop: a
// phase at offered rate λ sends operation i at its due time Σ gap/λ
// whether or not earlier ones have completed, over at most `workers`
// keep-alive connections, and charges each operation's latency from its
// due time. Operations on one stream keep their generated order: a
// mutation waits for every earlier operation on its stream, a read for
// every earlier mutation.
type runner struct {
	client  *http.Client
	base    string
	workers int

	mu    sync.Mutex
	cond  *sync.Cond
	gen   *generator
	carry *op // generated, but due after the previous phase ended
}

func newRunner(addr string, gen *generator, workers int) *runner {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	r := &runner{
		client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:    "http://" + addr,
		workers: workers,
		gen:     gen,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *runner) close() { r.client.CloseIdleConnections() }

// do sends one operation and reports whether it got a 2xx answer.
func (r *runner) do(o *op) (bool, string) {
	req, err := http.NewRequestWithContext(context.Background(), o.method, r.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return false, err.Error()
	}
	if o.kind == opIngest && o.binary {
		req.Header.Set("Content-Type", ctIngestBinary)
	} else if len(o.body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.kind.isRead() && o.binary {
		req.Header.Set("Accept", ctQueryBinary)
	}
	if o.tenant != "" {
		req.Header.Set(tenantHeader, o.tenant)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode/100 != 2 {
		return false, fmt.Sprintf("%s %s: %d %s", o.method, o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return true, ""
}

// waitTurn blocks until o may run under the per-stream ordering. Caller
// holds r.mu.
func (r *runner) waitTurn(o *op) {
	s := o.stream
	if s == nil {
		return
	}
	for {
		if o.kind.mutates() && s.done == o.ticket {
			return
		}
		if !o.kind.mutates() && s.mutsDone >= o.mutsBefore {
			return
		}
		r.cond.Wait()
	}
}

// finish records o's outcome on its stream. Caller holds r.mu.
func (r *runner) finish(o *op, sent, ok bool) {
	if s := o.stream; s != nil {
		s.done++
		if o.kind.mutates() {
			s.mutsDone++
			switch {
			case !sent:
			case !ok:
				s.tainted = true
			case o.kind == opIngest:
				s.ack(o.t, o.d)
			case o.kind == opDelete:
				s.deleted = true
			}
		}
	}
	r.cond.Broadcast()
}

// closedLoop sends ops as fast as the workers allow, in order per stream
// (the preload before a run).
func (r *runner) closedLoop(ops []*op) error {
	var (
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r.mu.Lock()
				if next == len(ops) || first != nil {
					r.mu.Unlock()
					return
				}
				o := ops[next]
				next++
				r.waitTurn(o)
				r.mu.Unlock()
				ok, msg := r.do(o)
				r.mu.Lock()
				r.finish(o, true, ok)
				if !ok && first == nil {
					first = fmt.Errorf("preload: %s", msg)
				}
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}

// run offers the generator's next operations at `rate` per second for
// dur, open loop. Operations due inside the phase that no worker could
// start before it ended are skipped (not attempted) and counted.
func (r *runner) run(rate float64, dur time.Duration) phaseResult {
	var (
		res     phaseResult
		nextDue float64 // seconds after start
		taken   int     // operations claimed so far
		wg      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r.mu.Lock()
				o := r.carry
				if o == nil {
					o = r.gen.next()
				}
				due := nextDue + o.gap/rate
				if due > dur.Seconds() {
					r.carry = o
					r.mu.Unlock()
					return
				}
				r.carry, nextDue = nil, due
				seq := taken
				taken++
				r.mu.Unlock()

				dueAt := start.Add(time.Duration(due * float64(time.Second)))
				sleepUntil(dueAt)
				r.mu.Lock()
				r.waitTurn(o)
				// A read or delete of a stream none of whose ingests was
				// sent (they fell past the end of an earlier phase) would
				// 404 by the client's own doing: it is not attempted.
				if o.kind != opIngest && o.stream != nil && o.stream.total == 0 {
					res.voided++
					r.finish(o, false, false)
					r.mu.Unlock()
					continue
				}
				r.mu.Unlock()
				sendAt := time.Now()
				if sendAt.After(end.Add(sendGrace)) {
					r.mu.Lock()
					wait := sendAt.Sub(dueAt)
					res.skipped = append(res.skipped, sample{
						kind: o.kind, seq: seq, due: dueAt.Sub(start), lat: wait, late: wait})
					r.finish(o, false, false)
					r.mu.Unlock()
					continue
				}
				ok, msg := r.do(o)
				doneAt := time.Now()
				r.mu.Lock()
				res.samples = append(res.samples, sample{
					kind: o.kind, seq: seq, due: dueAt.Sub(start), lat: doneAt.Sub(dueAt), late: sendAt.Sub(dueAt), ok: ok})
				if !ok && len(res.errors) < 5 {
					res.errors = append(res.errors, msg)
				}
				r.finish(o, true, ok)
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread until t with nanosleep(2). The
// runtime's timers wake a sleeper up to a millisecond late on VMs whose
// timer interrupts are coarse, which would add that much lateness to every
// open-loop send; nanosleep oversleeps by tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// latencies returns the sorted latencies of the samples kind selects,
// failures excluded (they are counted in fail_frac instead).
func latencies(ss []sample, pick func(opKind) bool, late bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.ok && pick(s.kind) {
			if late {
				out = append(out, s.late)
			} else {
				out = append(out, s.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dueLatencies returns the sorted latencies (or lateness), from the due
// time, of every operation kind selects that was due in the phase: the
// successful ones, and the skipped ones at their lower bound, so a stall
// that keeps operations from being sent raises the percentiles instead of
// dropping its slowest operations from them.
func dueLatencies(p *phaseResult, pick func(opKind) bool, late bool) []time.Duration {
	out := latencies(p.samples, pick, late)
	for _, s := range p.skipped {
		if pick(s.kind) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func isIngest(k opKind) bool { return k == opIngest }
func isRead(k opKind) bool   { return k.isRead() }
func anyOp(opKind) bool      { return true }
