package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"wcm/internal/qos"
)

// Endpoint classes for load shedding. Mutating endpoints (ingest,
// contract, delete) and read endpoints (curves, check, minfreq, verdict,
// list) are limited independently, so a flood of expensive ingests cannot
// starve cheap reads and vice versa. Observability endpoints (healthz,
// metrics, stats, self) are never shed: when the service is drowning is
// exactly when an operator needs them.
type epClass int

const (
	classNone epClass = iota // never shed
	classIngest
	classRead
)

// inflightLimiter is a bounded in-flight-request counter for one endpoint
// class: pure atomics, no queue. acquire optimistically increments and
// backs out over the limit, so admission costs one atomic add on the
// happy path and overload never blocks — excess requests are shed
// immediately with 429 (reads may instead fall back to a degraded cached
// answer; see shedRead in server.go).
// cur is bumped twice by every admitted request (acquire/release) from
// whichever core the handler runs on, so it gets a cache line to itself:
// without the spacers, cur and shed of the two limiters allocated together
// could land on one line and every ingest admission would invalidate the
// read path's admission line.
type inflightLimiter struct {
	max  int64
	_    [64 - 8]byte
	cur  atomic.Int64
	_    [64 - 8]byte
	shed atomic.Uint64

	// Shedding-pressure window for proportional Retry-After hints: sheds
	// are counted per wall-clock second (winStart names the second,
	// winCount accumulates within it). Both are updated only on the shed
	// path, so the admit path never touches this line.
	winStart atomic.Int64
	winCount atomic.Uint64
}

// newLimiter builds a limiter admitting at most max concurrent requests.
// max ≤ 0 means unlimited (nil limiter).
func newLimiter(max int) *inflightLimiter {
	if max <= 0 {
		return nil
	}
	return &inflightLimiter{max: int64(max)}
}

// acquire reports whether the request is admitted. Each admitted request
// must be paired with exactly one release.
func (l *inflightLimiter) acquire() bool {
	return l.acquireFor(qos.Interactive)
}

// acquireFor admits by SLO class with ordered thresholds on the shared
// in-flight counter: besteffort requests are admitted only while the
// level is below half the cap, batch below three quarters, interactive up
// to the full cap. Under overload the classes therefore shed in strict
// order — besteffort first, then batch, and interactive only at the hard
// ceiling — while an idle server treats all three identically. Each
// admitted request must be paired with exactly one release.
func (l *inflightLimiter) acquireFor(slo qos.SLO) bool {
	if l == nil {
		return true
	}
	limit := l.max
	switch slo {
	case qos.BestEffort:
		limit = l.max / 2
	case qos.Batch:
		limit = l.max - l.max/4
	}
	if limit < 1 {
		limit = 1 // a cap of 1 admits every class equally rather than none
	}
	if l.cur.Add(1) > limit {
		l.cur.Add(-1)
		l.shed.Add(1)
		l.noteShed(time.Now().UnixNano())
		return false
	}
	return true
}

// noteShed folds one shed into the pressure window. The reset race
// (two goroutines observing an expired window) at worst loses a few
// counts — the hint stays order-of-magnitude right, which is all a
// Retry-After needs.
func (l *inflightLimiter) noteShed(nowNs int64) {
	start := l.winStart.Load()
	if nowNs-start > int64(time.Second) {
		if l.winStart.CompareAndSwap(start, nowNs) {
			l.winCount.Store(1)
			return
		}
	}
	l.winCount.Add(1)
}

func (l *inflightLimiter) release() {
	if l != nil {
		l.cur.Add(-1)
	}
}

// Shed returns the number of requests turned away so far.
func (l *inflightLimiter) Shed() uint64 {
	if l == nil {
		return 0
	}
	return l.shed.Load()
}

// Limit returns the configured cap (0 = unlimited).
func (l *inflightLimiter) Limit() int64 {
	if l == nil {
		return 0
	}
	return l.max
}

// Inflight returns the current in-flight count.
func (l *inflightLimiter) Inflight() int64 {
	if l == nil {
		return 0
	}
	return l.cur.Load()
}

// retryAfterFloorSeconds is the minimum Retry-After attached to any shed,
// throttle or busy response: in-flight overload can clear in milliseconds
// once clients pause, so the smallest representable backoff is the floor.
// Actual hints scale up from it with observed pressure (shedHint) or the
// token-refill deficit (retrySecsFromNs), capped at
// maxRetryAfterSeconds — an unbounded hint would tell clients to go away
// longer than any overload plausibly lasts.
const (
	retryAfterFloorSeconds = 1
	maxRetryAfterSeconds   = 60
)

// retryAfterValue renders a Retry-After hint, clamped to
// [retryAfterFloorSeconds, maxRetryAfterSeconds]. Values this small
// stringify without allocation (strconv.Itoa's small-int fast path).
func retryAfterValue(secs int) string {
	if secs < retryAfterFloorSeconds {
		secs = retryAfterFloorSeconds
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return strconv.Itoa(secs)
}

// retrySecsFromNs converts a token-bucket refill deficit into whole
// seconds, rounding up — the client should not come back early.
func retrySecsFromNs(deficitNs int64) int {
	secs := int((deficitNs + int64(time.Second) - 1) / int64(time.Second))
	if secs < retryAfterFloorSeconds {
		return retryAfterFloorSeconds
	}
	return secs
}

// shedHint returns the Retry-After seconds for a shed answer,
// proportional to current pressure: 1 + (prior sheds in the last second
// per unit of capacity). The caller's own shed is excluded so an isolated
// blip hints exactly the floor; a sustained flood drowning an N-slot
// limiter hints progressively longer backoff.
func (l *inflightLimiter) shedHint() int {
	if l == nil {
		return retryAfterFloorSeconds
	}
	recent := l.winCount.Load()
	if recent > 0 {
		recent-- // this request's own shed is not prior pressure
	}
	return retryAfterFloorSeconds + int(recent/uint64(l.max)) //nolint:gosec // max ≥ 1 by construction
}

// writeShed emits the 429 overload answer with a pressure-proportional
// Retry-After hint (seconds).
func writeShed(w http.ResponseWriter, class string, hint int) {
	w.Header().Set("Retry-After", retryAfterValue(hint))
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{"overloaded: too many in-flight " + class + " requests"})
}
