package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"wcm/internal/stream"
)

// maxCachedQueries caps the per-stream, per-tenant parameterized result
// maps (/check and /minfreq keys). A stream version rarely sees more than
// a handful of distinct query parameters; the cap only guards against a
// client sweeping parameters faster than the stream ingests. On overflow
// the tenant's bucket starts a fresh epoch rather than evicting — simpler,
// and the whole map dies at the next version bump anyway. The cap is
// scoped per tenant bucket on purpose: one tenant spinning distinct
// parameters resets only its own bucket and can never evict another
// tenant's cached entries. Epoch resets are counted
// (wcmd_query_cache_epoch_resets_total) so an operator can see a
// parameter sweep happening.
const maxCachedQueries = 256

// cachedResp is one fully rendered HTTP answer: status plus the exact body
// bytes, stamped with the stream version it was computed at and the wire
// format of the body. Hits replay the bytes, so a cached response is
// bit-identical to the miss that populated it by construction.
type cachedResp struct {
	status  int
	body    []byte
	version int64
	binary  bool // body is the columnar query encoding, not JSON
}

// respSlot is a single-answer cache cell: one atomic pointer to the most
// recently rendered response for an unparameterized (endpoint, format)
// pair. A hit is one atomic load plus a version compare — no state clone,
// no map, no lock. Publishing never clones anything: the slot either
// advances to a newer version or keeps what it has (a CAS loop drops stale
// results that lost a race against a fresher render).
type respSlot struct {
	p atomic.Pointer[cachedResp]
}

// get returns the cached answer iff it was rendered at version; with
// anyVersion, whatever the slot holds.
func (s *respSlot) get(version int64) *cachedResp {
	if r := s.p.Load(); r != nil && (r.version == version || version == anyVersion) {
		return r
	}
	return nil
}

// put installs r unless the slot already holds a newer version.
func (s *respSlot) put(r *cachedResp) {
	for {
		old := s.p.Load()
		if old != nil && old.version > r.version {
			return
		}
		if s.p.CompareAndSwap(old, r) {
			return
		}
	}
}

// paramMap is an immutable-after-publish two-level map of parameterized
// answers at one version: tenant name → key → answer. Readers obtain it
// with a single atomic load and may look up any key without
// synchronization; writers never mutate a published map — they clone the
// outer map (inner maps are shared by reference, being immutable too),
// extend the one tenant bucket they touch and compare-and-swap. Unlike
// the old whole-cache clone-on-miss, only these small capped maps are
// ever copied, and only when a genuinely new parameter shows up at an
// unchanged version.
type paramMap[K comparable] struct {
	version int64
	m       map[string]map[K]*cachedResp
}

// paramCache is the per-(endpoint, format) parameterized answer cache.
// The zero value is ready to use.
type paramCache[K comparable] struct {
	p atomic.Pointer[paramMap[K]]
}

// get returns tenant's answer for k iff the published map is at version;
// with anyVersion, see getAny.
func (c *paramCache[K]) get(version int64, tenant string, k K) *cachedResp {
	if version == anyVersion {
		return c.getAny(tenant, k)
	}
	if pm := c.p.Load(); pm != nil && pm.version == version {
		return pm.m[tenant][k]
	}
	return nil
}

// getAny returns an answer for k at whatever version is published — the
// degraded-read fallback. The tenant's own bucket is preferred; failing
// that, any tenant's entry serves: cached bodies are functions of the
// stream alone, so cross-tenant reuse of stale bytes is sound.
func (c *paramCache[K]) getAny(tenant string, k K) *cachedResp {
	pm := c.p.Load()
	if pm == nil {
		return nil
	}
	if r := pm.m[tenant][k]; r != nil {
		return r
	}
	for _, bucket := range pm.m {
		if r := bucket[k]; r != nil {
			return r
		}
	}
	return nil
}

// put records tenant's answer for k at version. reset reports that the
// tenant's bucket hit the cap and a fresh epoch replaced it (the caller
// counts those); other tenants' buckets are never touched by a reset.
// A stale version (older than the published map) is dropped.
func (c *paramCache[K]) put(version int64, tenant string, k K, r *cachedResp) (reset bool) {
	for {
		old := c.p.Load()
		if old != nil && old.version > version {
			return reset
		}
		next := &paramMap[K]{version: version}
		if old != nil && old.version == version {
			bucket := old.m[tenant]
			next.m = make(map[string]map[K]*cachedResp, len(old.m)+1)
			for ot, ob := range old.m {
				next.m[ot] = ob
			}
			if len(bucket) >= maxCachedQueries {
				reset = true
				next.m[tenant] = map[K]*cachedResp{k: r}
			} else {
				nb := make(map[K]*cachedResp, len(bucket)+1)
				for ok, ov := range bucket {
					nb[ok] = ov
				}
				nb[k] = r
				next.m[tenant] = nb
			}
		} else {
			next.m = map[string]map[K]*cachedResp{tenant: {k: r}}
		}
		if c.p.CompareAndSwap(old, next) {
			return reset
		}
	}
}

// cachedSnap pins the stream.Snapshot taken at one version so every
// parameterized miss at that version (a /check with a new key, a /minfreq
// with a new b) reuses it instead of taking the stream lock again.
// Snapshot contents are built fresh per capture and never mutated
// afterwards, so sharing is safe.
type cachedSnap struct {
	version int64
	snap    stream.Snapshot
}

type snapSlot struct {
	p atomic.Pointer[cachedSnap]
}

func (s *snapSlot) get(version int64) (stream.Snapshot, bool) {
	if cs := s.p.Load(); cs != nil && cs.version == version {
		return cs.snap, true
	}
	return stream.Snapshot{}, false
}

func (s *snapSlot) put(version int64, snap stream.Snapshot) {
	next := &cachedSnap{version: version, snap: snap}
	for {
		old := s.p.Load()
		if old != nil && old.version >= version {
			return
		}
		if s.p.CompareAndSwap(old, next) {
			return
		}
	}
}

// ---- singleflight ----------------------------------------------------------

// Endpoint ordinals for flight keys.
const (
	epCurves uint8 = iota
	epCheck
	epMinFreq
	epVerdict
)

// epNames are the read endpoints' route names by ordinal — also the
// sub-object field names of a /v1/query answer, spliced in ordinal order.
var epNames = [...]string{epCurves: "curves", epCheck: "check", epMinFreq: "minfreq", epVerdict: "verdict"}

// flightKey names one render: which endpoint, which wire format, which
// query parameters, at which stream generation. The version is part of the
// key on purpose — a reader that observed version 6 must not piggyback on a
// render started for version 5.
type flightKey struct {
	ep      uint8
	binary  bool
	version int64
	ck      checkRequest // zero unless ep == epCheck
	b       int          // zero unless ep == epMinFreq
}

// readQuery is one read against one stream: the endpoint, wire format and
// parameters of its flight key — whose version stays unset; resolve stamps
// the stream generation it observes — plus the tenant whose bucket holds
// the parameterized answers.
type readQuery struct {
	flightKey
	tenant string
}

// flightCall is one in-progress render. done closes when resp/err are set;
// followers block on it (bounded by their request context).
type flightCall struct {
	done chan struct{}
	resp *cachedResp
	err  error
}

// flightGroup deduplicates concurrent renders of the same flightKey: the
// first goroutine in becomes the leader and renders, later arrivals wait
// for its result. The map only ever holds in-progress calls, so the mutex
// is uncontended except during an actual miss storm — hits never touch it.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// errRenderAborted is what followers see when the leader panicked before
// producing a result (the panic itself propagates on the leader's request).
var errRenderAborted = errors.New("concurrent render aborted")

// do runs render under singleflight for key. Exactly one caller (the
// leader) executes render; concurrent callers with the same key wait for
// the leader's result until ctx expires, then fail with stream.ErrBusy so
// the caller's degraded-read fallback takes over. led reports whether this
// call was the leader (for metrics).
func (g *flightGroup) do(ctx context.Context, key flightKey, render func() (*cachedResp, error)) (resp *cachedResp, led bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.resp == nil && c.err == nil {
				return nil, false, errRenderAborted
			}
			return c.resp, false, c.err
		case <-ctx.Done():
			return nil, false, stream.ErrBusy
		}
	}
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		// Publish-then-release even on panic: followers must never be
		// stranded on done, and the flight must leave the map so the next
		// request can retry rather than join a dead call.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.resp, c.err = render()
	return c.resp, true, c.err
}

// ---- per-stream cache ------------------------------------------------------

// queryCache is the per-stream version-keyed response cache. The zero value
// is ready to use.
//
// Invalidation needs no explicit step: stream.Stream bumps its version
// (atomically, under the stream lock, before the mutating call returns) on
// every ingest batch, contract change and forced re-extraction, and every
// lookup compares the cached answer's version against Stream.Version().
// An answer rendered at an older version simply stops matching; the next
// miss renders a successor into its slot. Hits are one atomic load (plus a
// map lookup for parameterized endpoints) — no locks, no stream access,
// and unlike the previous design a miss never clones cache state: each
// endpoint/format pair owns an independent slot.
type queryCache struct {
	snap snapSlot

	curves    respSlot // GET /curves, JSON
	curvesBin respSlot // GET /curves, binary
	verdict   respSlot // GET /verdict (JSON only)

	check      paramCache[checkRequest] // POST /check, JSON
	checkBin   paramCache[checkRequest] // POST /check, binary
	minfreq    paramCache[int]          // GET /minfreq, JSON; key: buffer b
	minfreqBin paramCache[int]          // GET /minfreq, binary

	flights flightGroup
}

// anyVersion asks a cache lookup for the last answer cached at any stream
// version — the degraded-read fallback, which serves stale answers on
// purpose. Stream versions start at 0, so it never names a real one.
const anyVersion int64 = -1

// lookup returns q's cached answer rendered at version (any version with
// anyVersion), or nil when there is none.
func (c *queryCache) lookup(q *readQuery, version int64) *cachedResp {
	switch q.ep {
	case epCheck:
		return c.checkCache(q.binary).get(version, q.tenant, q.ck)
	case epMinFreq:
		return c.minfreqCache(q.binary).get(version, q.tenant, q.b)
	}
	return c.slot(q).get(version)
}

// publish installs resp, rendered for q, at resp.version. reset reports
// that the tenant's parameterized bucket hit its cap and a fresh epoch
// replaced it.
func (c *queryCache) publish(q *readQuery, resp *cachedResp) (reset bool) {
	switch q.ep {
	case epCheck:
		return c.checkCache(q.binary).put(resp.version, q.tenant, q.ck, resp)
	case epMinFreq:
		return c.minfreqCache(q.binary).put(resp.version, q.tenant, q.b, resp)
	}
	c.slot(q).put(resp)
	return false
}

// slot returns the single-answer cell of an unparameterized query.
func (c *queryCache) slot(q *readQuery) *respSlot {
	switch {
	case q.ep == epVerdict:
		return &c.verdict
	case q.binary:
		return &c.curvesBin
	}
	return &c.curves
}

func (c *queryCache) checkCache(binary bool) *paramCache[checkRequest] {
	if binary {
		return &c.checkBin
	}
	return &c.check
}

func (c *queryCache) minfreqCache(binary bool) *paramCache[int] {
	if binary {
		return &c.minfreqBin
	}
	return &c.minfreq
}
