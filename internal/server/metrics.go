package server

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
	"wcm/internal/stream"
)

// Stage names for the hot-path timing spans. The ingest path is split at
// its three phase boundaries (decode → shard/stream update → render);
// the cached query paths record one span per outcome so hit and miss
// latencies are separable distributions, not one blurred histogram.
// The same names label the trace spans of those phases; the span-only
// names below them have no histogram.
const (
	stageDecode    = "decode"     // body read + JSON/binary parse
	stageUpdate    = "update"     // enqueue + queue wait + coalesced apply (+ WAL commit)
	stageRender    = "render"     // response encode + write
	stageCacheHit  = "cache_hit"  // cached query replayed from the version-keyed cache
	stageCacheMiss = "cache_miss" // query computed from a fresh snapshot
	stageWALAppend = "wal_append" // one WAL record framed + written to the segment
	stageWALFsync  = "wal_fsync"  // one group-commit fsync of a shard's segment

	spanQueueWait    = "queue_wait"   // enqueue to the worker's drain
	spanApply        = "apply"        // one coalesced stream update
	spanSingleflight = "singleflight" // a read's singleflight role (leader/shared)
	spanResolve      = "resolve"      // a read's cache or snapshot resolution
)

var stageNames = []string{stageDecode, stageUpdate, stageRender, stageCacheHit, stageCacheMiss,
	stageWALAppend, stageWALFsync}

// metrics holds the service's counters and histograms. Per-endpoint and
// per-stage cells are plain atomics updated on the request path; gauges
// derived from stream state are computed at scrape time by the registry
// (see Server.newRegistry), so the hot path never touches them.
//
// INVARIANT: the endpoints and stages maps are built once by newMetrics
// and never written afterwards — every route registers at mux
// construction, before the first request. Lookups on the request path and
// walks at scrape time therefore need no lock: a /metrics scrape can
// never block (or be blocked by) request handling. Adding a route without
// listing its name in newMetrics is a programming error that endpoint()
// turns into a startup panic, not a silent data race.
// The hot counters are grouped by the path that bumps them, with cache-line
// spacers between the groups: ingest-path counters share a line with each
// other (they are bumped together, by the same goroutine per batch) but not
// with the read-path counters, so a stream of ingests does not invalidate
// the line that concurrent query traffic is bumping, and vice versa — the
// same false-sharing repair as stream.Stream's version counter.
type metrics struct {
	start time.Time

	_       [64]byte      // ingest-path counters on their own cache line
	samples atomic.Uint64 // demand samples accepted
	batches atomic.Uint64 // ingest batches accepted
	// ingest batches whose result carried a fresh contract violation
	violatingBatches atomic.Uint64
	binaryBatches    atomic.Uint64 // ingest batches decoded from the binary format

	_             [64 - 4*8]byte // read-path counters on the next line
	cacheHits     atomic.Uint64  // query responses replayed from the version-keyed cache
	cacheMisses   atomic.Uint64  // query responses that had to be computed
	renders       atomic.Uint64  // responses actually rendered (≤ misses under singleflight)
	sfLeader      atomic.Uint64  // singleflight calls that led the render for their key
	sfShared      atomic.Uint64  // singleflight calls that piggybacked on a leader
	binaryQueries atomic.Uint64  // query requests that negotiated the binary response format
	epochResets   atomic.Uint64  // parameterized cache maps restarted at the entry cap

	_        [64 - 7*8]byte // cold/error counters off the hot read line
	panics   atomic.Uint64  // handler panics caught by the recovery barrier
	degraded atomic.Uint64  // responses served from a stale cache marked degraded

	// coalesce records batches fused per ingest worker wakeup (1 = no
	// coalescing happened for that drain).
	coalesce obs.CountHist

	// batchStreams records streams-answered-per-/v1/query-request — the
	// read-side mirror of coalesce: how much per-request overhead each
	// batch amortizes.
	batchStreams obs.CountHist

	// traceSpans records spans-per-trace for every traced request (kept or
	// not) — the span-depth distribution of the tracing subsystem.
	traceSpans obs.CountHist

	build buildInfo

	endpoints map[string]*endpointStats // immutable after newMetrics
	epNames   []string                  // sorted keys of endpoints
	stages    map[string]*obs.Histogram // immutable after newMetrics
}

// endpointStats accumulates request-path cells for one route: request and
// error counters plus the full latency distribution. The histogram
// replaced the earlier sum/max pair — sum and count still fall out of it
// (the Prometheus _sum/_count series), and the distribution additionally
// answers p50/p95/p99.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status ≥ 400
	latency  obs.Histogram
}

// buildInfo is captured once at startup from the runtime.
type buildInfo struct {
	goVersion string
	version   string // main module version ("(devel)" for tree builds)
	revision  string // vcs.revision, if stamped
}

func readBuildInfo() buildInfo {
	b := buildInfo{goVersion: runtime.Version(), version: "unknown", revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Version != "" {
		b.version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			b.revision = s.Value
		}
	}
	return b
}

// newMetrics pre-registers the complete endpoint set. See the invariant on
// metrics: registration happens here and only here.
func newMetrics(endpointNames []string) *metrics {
	m := &metrics{
		start:     time.Now(),
		build:     readBuildInfo(),
		endpoints: make(map[string]*endpointStats, len(endpointNames)),
		stages:    make(map[string]*obs.Histogram, len(stageNames)),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointStats{}
	}
	m.epNames = append(m.epNames, endpointNames...)
	sort.Strings(m.epNames)
	for _, name := range stageNames {
		m.stages[name] = &obs.Histogram{}
	}
	return m
}

// endpoint returns the stats cell for a pre-registered route. Unknown
// names panic: they mean a route was added without registering it in
// Server.routes, which would otherwise require request-path locking.
func (m *metrics) endpoint(name string) *endpointStats {
	ep := m.endpoints[name]
	if ep == nil {
		panic(fmt.Sprintf("server: endpoint %q not pre-registered in newMetrics", name))
	}
	return ep
}

// stage returns the histogram for a hot-path timing span.
func (m *metrics) stage(name string) *obs.Histogram {
	h := m.stages[name]
	if h == nil {
		panic(fmt.Sprintf("server: stage %q not pre-registered in newMetrics", name))
	}
	return h
}

func (ep *endpointStats) observe(d time.Duration, status int) {
	ep.requests.Add(1)
	if status >= 400 {
		ep.errors.Add(1)
	}
	ep.latency.Observe(d)
}

// ---- the metrics registry ---------------------------------------------------

// family is one row of the server's metric table.
type family = obs.Entry[*scrape]

// readFn is a family's Read: it emits the family's series at render time.
type readFn = func(*scrape, func(obs.Series))

// addCounters folds the monotone counters of st (re-extractions, drift,
// violations) into c; c's other fields stay untouched.
func addCounters(c *stream.Stats, st stream.Stats) {
	c.Reextractions += st.Reextractions
	c.Drift += st.Drift
	c.Violations += st.Violations
}

// scrape is the state one /metrics or /v1/stats render shares across its
// families. The walk over every stream runs on first use, so at most once
// per render and not at all for /v1/stats, which shows no stream family.
type scrape struct {
	s                 *Server
	walked            bool
	streams, inWindow int64
	counters          stream.Stats // counters of live streams plus each shard's retired ones
}

func (s *Server) newScrape() *scrape { return &scrape{s: s} }

// walk sums stream state once per render. A shard's retired counters are
// read under the same lock as its stream set, so a concurrent DELETE
// moves a stream's counters from one to the other without a gap or a
// double count. Stats are read outside the shard locks: a scrape never
// holds a shard while it waits on a stream.
func (sc *scrape) walk() *scrape {
	if sc.walked {
		return sc
	}
	sc.walked = true
	var entries []*entry
	for _, sh := range sc.s.shards {
		sh.mu.RLock()
		addCounters(&sc.counters, sh.retired)
		for _, e := range sh.streams {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	for _, e := range entries {
		st := e.st.Stats()
		sc.streams++
		sc.inWindow += int64(st.InWindow)
		addCounters(&sc.counters, st)
	}
	return sc
}

// value reads one unlabelled number.
func value[T int64 | uint64 | float64](f func() T) readFn {
	return func(_ *scrape, emit func(obs.Series)) { emit(obs.Series{Value: float64(f())}) }
}

// fromWalk reads one unlabelled number from the render's stream walk.
func fromWalk(f func(*scrape) int64) readFn {
	return func(sc *scrape, emit func(obs.Series)) { emit(obs.Series{Value: float64(f(sc.walk()))}) }
}

// perClass emits one series per endpoint class, read from its limiter.
func (s *Server) perClass(f func(*inflightLimiter) obs.Series) readFn {
	return func(_ *scrape, emit func(obs.Series)) {
		in, rd := f(s.limIngest), f(s.limRead)
		in.Labels, rd.Labels = []string{"ingest"}, []string{"read"}
		emit(in)
		emit(rd)
	}
}

// perTenant emits one series per tenant, labelled tenant and slo.
func (s *Server) perTenant(f func(*tenantState) obs.Series) readFn {
	return func(_ *scrape, emit func(obs.Series)) {
		for _, name := range s.qos.names {
			t := s.qos.state(name)
			se := f(t)
			se.Labels = []string{name, t.slo.String()}
			emit(se)
		}
	}
}

// perEndpoint emits one series per route, in name order.
func (m *metrics) perEndpoint(f func(*endpointStats) obs.Series) readFn {
	return func(_ *scrape, emit func(obs.Series)) {
		for _, name := range m.epNames {
			se := f(m.endpoints[name])
			se.Labels = []string{name}
			emit(se)
		}
	}
}

func num[T int64 | uint64](v T) obs.Series { return obs.Series{Value: float64(v)} }

var classLabel, tenantLabels, endpointLabel = []string{"class"}, []string{"tenant", "slo"}, []string{"endpoint"}

// newRegistry builds the metric table that /metrics and /v1/stats both
// render, in exposition order. WAL and trace families exist only when the
// server has a WAL or a tracer.
func (s *Server) newRegistry() *obs.Registry[*scrape] {
	m := s.metrics
	fams := []family{
		{Name: "wcmd_samples_ingested_total", Kind: obs.Counter, Read: value(m.samples.Load),
			Help: "Demand samples accepted across all streams."},
		{Name: "wcmd_ingest_batches_total", Kind: obs.Counter, Read: value(m.batches.Load),
			Help: "Ingest batches accepted."},
		{Name: "wcmd_violating_batches_total", Kind: obs.Counter, Read: value(m.violatingBatches.Load),
			Help: "Ingest batches that surfaced a contract violation."},
		{Name: "wcmd_ingest_binary_batches_total", Kind: obs.Counter, Read: value(m.binaryBatches.Load),
			Help: "Ingest batches decoded from the binary wire format."},
		{Name: "wcmd_query_cache_hits_total", Kind: obs.Counter, Read: value(m.cacheHits.Load),
			Help: "Query responses replayed from the version-keyed snapshot cache."},
		{Name: "wcmd_query_cache_misses_total", Kind: obs.Counter, Read: value(m.cacheMisses.Load),
			Help: "Query responses computed because no cached answer matched."},
		{Name: "wcmd_query_renders_total", Kind: obs.Counter, Read: value(m.renders.Load),
			Help: "Query responses actually rendered (misses minus singleflight sharing)."},
		{Name: "wcmd_query_singleflight_leader_total", Kind: obs.Counter, Read: value(m.sfLeader.Load),
			Help: "Singleflight calls that led the render for their key."},
		{Name: "wcmd_query_singleflight_shared_total", Kind: obs.Counter, Read: value(m.sfShared.Load),
			Help: "Singleflight calls that piggybacked on a concurrent render."},
		{Name: "wcmd_query_binary_total", Kind: obs.Counter, Read: value(m.binaryQueries.Load),
			Help: "Query requests answered in the binary response format."},
		{Name: "wcmd_query_cache_epoch_resets_total", Kind: obs.Counter, Read: value(m.epochResets.Load),
			Help: "Parameterized query cache maps restarted at the entry cap."},
		{Name: "wcmd_streams", Kind: obs.Gauge, Help: "Live streams.",
			Read: fromWalk(func(sc *scrape) int64 { return sc.streams })},
		{Name: "wcmd_samples_in_window", Kind: obs.Gauge,
			Help: "Samples currently inside sliding windows, summed over streams.",
			Read: fromWalk(func(sc *scrape) int64 { return sc.inWindow })},
		{Name: "wcmd_reextractions_total", Kind: obs.Counter,
			Help: "Full batch re-extractions run as correctness anchors.",
			Read: fromWalk(func(sc *scrape) int64 { return sc.counters.Reextractions })},
		{Name: "wcmd_reextraction_drift_total", Kind: obs.Counter,
			Help: "Anchor re-extractions that disagreed with the incremental state (expect 0).",
			Read: fromWalk(func(sc *scrape) int64 { return sc.counters.Drift })},
		{Name: "wcmd_contract_violations_total", Kind: obs.Counter,
			Help: "Contract violations observed, summed over streams.",
			Read: fromWalk(func(sc *scrape) int64 { return sc.counters.Violations })},
		{Name: "wcmd_panics_total", Kind: obs.Counter, Read: value(m.panics.Load), Stats: "panics",
			Help: "Handler panics caught by the recovery barrier."},
		{Name: "wcmd_degraded_responses_total", Kind: obs.Counter, Read: value(m.degraded.Load), Stats: "degraded",
			Help: "Responses served from a stale cached snapshot, marked degraded."},
		{Name: "wcmd_uptime_seconds", Kind: obs.Gauge, Stats: "uptime_seconds",
			Help: "Seconds since the server started.",
			Read: value(func() float64 { return time.Since(m.start).Seconds() })},
		{Name: "wcmd_shed_total", Kind: obs.Counter, Labels: classLabel, Stats: "limits.{class}.shed",
			Help: "Requests turned away by the in-flight limiter, by endpoint class.",
			Read: s.perClass(func(l *inflightLimiter) obs.Series { return num(l.Shed()) })},
		{Name: "wcmd_inflight_limit", Kind: obs.Gauge, Labels: classLabel, Stats: "limits.{class}.limit",
			Help: "Configured in-flight request cap, by endpoint class (0 = unlimited).",
			Read: s.perClass(func(l *inflightLimiter) obs.Series { return num(l.Limit()) })},
		{Name: "wcmd_inflight_requests", Kind: obs.Gauge, Labels: classLabel, Stats: "limits.{class}.inflight",
			Help: "Currently executing requests, by endpoint class.",
			Read: s.perClass(func(l *inflightLimiter) obs.Series { return num(l.Inflight()) })},
		{Name: "wcmd_ingest_coalesce_batches", Kind: obs.CountHistogram,
			Help: "Ingest batches fused per async worker wakeup (1 = no coalescing).",
			Read: func(_ *scrape, emit func(obs.Series)) { emit(obs.Series{Counts: m.coalesce.Snapshot()}) }},
		{Name: "wcmd_query_batch_streams", Kind: obs.CountHistogram,
			Help: "Streams answered per /v1/query request.",
			Read: func(_ *scrape, emit func(obs.Series)) { emit(obs.Series{Counts: m.batchStreams.Snapshot()}) }},
		{Name: "wcmd_ingest_queue_depth", Kind: obs.Gauge, Labels: []string{"shard"},
			Help: "Enqueued ingest jobs waiting in each shard's ring at scrape time.",
			Read: func(_ *scrape, emit func(obs.Series)) {
				for i, p := range s.pipes {
					emit(obs.Series{Labels: []string{strconv.Itoa(i)}, Value: float64(p.ring.Len())})
				}
			}},
	}
	if tr := s.tracer; tr != nil {
		fams = append(fams, []family{
			{Name: "wcmd_trace_kept_total", Kind: obs.Counter, Read: value(tr.Kept), Stats: "trace.kept",
				Help: "Finished traces retained by tail-based sampling."},
			{Name: "wcmd_trace_dropped_total", Kind: obs.Counter, Read: value(tr.Dropped), Stats: "trace.dropped",
				Help: "Finished traces discarded (ordinary and not sampled)."},
			{Name: "wcmd_trace_sampled_total", Kind: obs.Counter, Read: value(tr.Sampled), Stats: "trace.sampled",
				Help: "Traces kept by the 1-in-N sampler alone (no anomaly)."},
			{Name: "wcmd_trace_evicted_total", Kind: obs.Counter, Read: value(tr.Evicted), Stats: "trace.evicted",
				Help: "Stored traces evicted to keep the store inside its byte cap."},
			{Name: "wcmd_trace_truncated_spans_total", Kind: obs.Counter, Read: value(tr.TruncatedSpans),
				Stats: "trace.truncated_spans", Help: "Spans dropped because a trace hit its span cap."},
			{Name: "wcmd_trace_store_bytes", Kind: obs.Gauge, Read: value(tr.StoreBytes), Stats: "trace.store_bytes",
				Help: "Bytes currently retained by the trace store."},
			{Name: "wcmd_trace_store_bytes_limit", Kind: obs.Gauge, Read: value(tr.StoreLimit),
				Stats: "trace.store_bytes_limit", Help: "Hard cap on trace store memory (oldest traces evicted)."},
			{Name: "wcmd_trace_spans", Kind: obs.CountHistogram,
				Help: "Spans recorded per traced request.",
				Read: func(_ *scrape, emit func(obs.Series)) { emit(obs.Series{Counts: m.traceSpans.Snapshot()}) }},
		}...)
	}
	fams = append(fams, []family{
		{Name: "wcmd_tenant_admitted_total", Kind: obs.Counter, Labels: tenantLabels,
			Stats: "tenants.{tenant}.admitted",
			Help:  "Requests that passed tenant rate admission, by tenant and SLO class.",
			Read:  s.perTenant(func(t *tenantState) obs.Series { return num(t.admitted.Load()) })},
		{Name: "wcmd_tenant_throttled_total", Kind: obs.Counter, Labels: tenantLabels,
			Stats: "tenants.{tenant}.throttled",
			Help:  "Requests rejected by the tenant's token bucket, by tenant and SLO class.",
			Read:  s.perTenant(func(t *tenantState) obs.Series { return num(t.throttled.Load()) })},
		{Name: "wcmd_tenant_shed_total", Kind: obs.Counter, Labels: tenantLabels, Stats: "tenants.{tenant}.shed",
			Help: "Requests turned away by SLO-ordered in-flight shedding, by tenant and SLO class.",
			Read: s.perTenant(func(t *tenantState) obs.Series { return num(t.shed.Load()) })},
		{Name: "wcmd_tenant_degraded_total", Kind: obs.Counter, Labels: tenantLabels,
			Stats: "tenants.{tenant}.degraded",
			Help:  "Throttled or shed reads still answered from the cached degraded path, by tenant and SLO class.",
			Read:  s.perTenant(func(t *tenantState) obs.Series { return num(t.degraded.Load()) })},
		{Name: "wcmd_tenant_streams", Kind: obs.Gauge, Labels: tenantLabels, Stats: "tenants.{tenant}.streams",
			Help: "Live streams owned by each tenant.",
			Read: s.perTenant(func(t *tenantState) obs.Series { return num(t.streams.Load()) })},
		{Name: "wcmd_tenant_request_latency_seconds", Kind: obs.LatencyHistogram, Labels: tenantLabels,
			Stats: "tenants.{tenant}.latency", Help: "Handler latency distribution, by tenant and SLO class.",
			Read: s.perTenant(func(t *tenantState) obs.Series { return obs.Series{Latency: t.latency.Snapshot()} })},
	}...)
	if w := s.wal; w != nil {
		rec := &s.recovered
		fams = append(fams, []family{
			{Name: "wcmd_wal_bytes_total", Kind: obs.Counter, Read: value(w.BytesAppended), Stats: "wal.bytes_total",
				Help: "Bytes appended to the write-ahead log."},
			{Name: "wcmd_wal_appends_total", Kind: obs.Counter, Read: value(w.Appends), Stats: "wal.appends_total",
				Help: "Records appended to the write-ahead log."},
			{Name: "wcmd_wal_fsyncs_total", Kind: obs.Counter, Read: value(w.Fsyncs), Stats: "wal.fsyncs_total",
				Help: "Group-commit fsyncs of WAL segments."},
			{Name: "wcmd_wal_torn_tails_total", Kind: obs.Counter, Read: value(w.TornTails), Stats: "wal.torn_tails",
				Help: "Torn WAL tails truncated during recovery (expect 0 or 1 per crash)."},
			{Name: "wcmd_recovery_replayed_batches", Kind: obs.Counter, Read: value(rec.batches.Load),
				Stats: "wal.replayed_batches", Help: "Ingest batches replayed from the WAL at boot."},
			{Name: "wcmd_recovery_replayed_samples", Kind: obs.Counter, Read: value(rec.samples.Load),
				Stats: "wal.replayed_samples", Help: "Demand samples replayed from the WAL at boot."},
			{Name: "wcmd_recovery_streams", Kind: obs.Counter, Read: value(rec.streams.Load),
				Stats: "wal.recovered_streams", Help: "Streams restored from snapshots and WAL replay at boot."},
			{Name: "wcmd_wal_clean_start", Kind: obs.Gauge, Stats: "wal.clean_start", Bool: true,
				Help: "Whether this boot found a clean-shutdown marker (1) or ran crash recovery (0).",
				Read: value(func() (clean int64) {
					if w.CleanStart() {
						clean = 1
					}
					return clean
				})},
		}...)
	}
	fams = append(fams, []family{
		{Name: "wcmd_build_info", Kind: obs.Gauge, Labels: []string{"go_version", "version", "revision"},
			Help: "Build metadata; the value is always 1.",
			Read: func(_ *scrape, emit func(obs.Series)) {
				emit(obs.Series{Labels: []string{m.build.goVersion, m.build.version, m.build.revision}, Value: 1})
			}},
		{Name: "wcmd_requests_total", Kind: obs.Counter, Labels: endpointLabel,
			Help: "Requests served, by endpoint.",
			Read: m.perEndpoint(func(ep *endpointStats) obs.Series { return num(ep.requests.Load()) })},
		{Name: "wcmd_request_errors_total", Kind: obs.Counter, Labels: endpointLabel,
			Stats: "endpoints.{endpoint}.errors", OmitZero: true,
			Help: "Responses with status >= 400, by endpoint.",
			Read: m.perEndpoint(func(ep *endpointStats) obs.Series { return num(ep.errors.Load()) })},
		{Name: "wcmd_request_latency_seconds", Kind: obs.LatencyHistogram, Labels: endpointLabel,
			Stats: "endpoints.{endpoint}", OmitZero: true,
			Help: "Handler latency distribution, by endpoint.",
			Read: m.perEndpoint(func(ep *endpointStats) obs.Series {
				return obs.Series{Latency: ep.latency.Snapshot()}
			})},
		{Name: "wcmd_request_latency_quantile_seconds", Kind: obs.Gauge, Labels: []string{"endpoint", "quantile"},
			Help: "Estimated handler latency quantiles, by endpoint.",
			Read: func(_ *scrape, emit func(obs.Series)) {
				for _, name := range m.epNames {
					snap := m.endpoints[name].latency.Snapshot()
					for _, q := range obs.ReportedQuantiles {
						emit(obs.Series{Labels: []string{name, q.Label}, Value: snap.Quantile(q.Q)})
					}
				}
			}},
		{Name: "wcmd_stage_latency_seconds", Kind: obs.LatencyHistogram, Labels: []string{"stage"},
			Stats: "stages.{stage}", OmitZero: true,
			Help: "Hot-path stage latency distribution (decode/update/render, cache hit/miss).",
			Read: func(_ *scrape, emit func(obs.Series)) {
				for _, name := range stageNames {
					emit(obs.Series{Labels: []string{name}, Latency: m.stages[name].Snapshot()})
				}
			}},
	}...)
	return obs.NewRegistry(s.newScrape, fams...)
}
