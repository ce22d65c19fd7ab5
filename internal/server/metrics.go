package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
)

// Stage names for the hot-path timing spans. The ingest path is split at
// its three phase boundaries (decode → shard/stream update → render);
// the cached query paths record one span per outcome so hit and miss
// latencies are separable distributions, not one blurred histogram.
const (
	stageDecode    = "decode"     // body read + JSON/binary parse
	stageUpdate    = "update"     // enqueue + queue wait + coalesced apply (+ WAL commit)
	stageRender    = "render"     // response encode + write
	stageCacheHit  = "cache_hit"  // cached query replayed from the version-keyed cache
	stageCacheMiss = "cache_miss" // query computed from a fresh snapshot
	stageWALAppend = "wal_append" // one WAL record framed + written to the segment
	stageWALFsync  = "wal_fsync"  // one group-commit fsync of a shard's segment
)

var stageNames = []string{stageDecode, stageUpdate, stageRender, stageCacheHit, stageCacheMiss,
	stageWALAppend, stageWALFsync}

// metrics holds the service's counters and histograms. Per-endpoint and
// per-stage cells are plain atomics updated on the request path; gauges
// derived from stream state are computed at scrape time by the /metrics
// handler (see Server.handleMetrics), so the hot path never touches them.
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

// gauges are scrape-time values aggregated over all live streams, plus the
// load-shedding readings sampled from the per-class limiters.
type gauges struct {
	streams    int64
	inWindow   int64
	reex       int64
	drift      int64
	violations int64

	shedIngest, shedRead         uint64 // requests turned away, cumulative
	limitIngest, limitRead       int64  // configured caps (0 = unlimited)
	inflightIngest, inflightRead int64  // currently executing requests

	// queueDepths samples each shard's ingest ring occupancy at scrape
	// time.
	queueDepths []int

	// wal carries the durability counters; nil when the server runs
	// without a write-ahead log.
	wal *walGauges

	// trace carries the tracing counters and store accounting; nil when
	// tracing is off.
	trace *traceGauges

	// tenants carries the per-tenant QoS counters, sampled per scrape.
	// Always non-empty (the default tenant exists unconditionally).
	tenants []tenantGauges
}

// tenantGauges is one tenant's QoS reading at scrape time: the admission
// counter quartet, the live stream count against the quota, and the
// request latency distribution. slo rides along as a second metric label
// so per-class aggregation needs no join.
type tenantGauges struct {
	name      string
	slo       string
	admitted  uint64
	throttled uint64
	shed      uint64
	degraded  uint64
	streams   int64
	latency   obs.HistSnapshot
}

// ---- Prometheus text exposition ---------------------------------------------

// escapeLabel escapes a label VALUE per the Prometheus text format:
// backslash, double quote and newline. Label names here are all literals.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// emittedBuckets is the subset of histogram bucket indices exported to
// Prometheus: factor-4 steps from 1µs to ~17s. The in-memory histograms
// keep full 2× resolution (quantile estimates use it); the exposition
// coarsens to keep scrape size proportionate. Cumulative counts stay
// exact at every emitted bound because lower unemitted buckets fold into
// the first emitted one, and +Inf always closes the series.
var emittedBuckets = func() []int {
	var idx []int
	for i := 10; i <= 34; i += 2 {
		idx = append(idx, i)
	}
	return idx
}()

// formatLe renders a bucket bound the way Prometheus clients do: shortest
// float64 round-trip representation.
func formatLe(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// writeHistogramFamily emits one histogram metric family with a single
// variable label. rows maps label value → snapshot, emitted in name order.
func writeHistogramFamily(w io.Writer, family, help, label string, names []string,
	snap func(string) obs.HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", family, help, family)
	for _, name := range names {
		s := snap(name)
		lv := escapeLabel(name)
		for _, i := range emittedBuckets {
			fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"%s\"} %d\n",
				family, label, lv, formatLe(obs.UpperBoundSeconds(i)), s.CumulativeCount(i))
		}
		fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"+Inf\"} %d\n", family, label, lv, s.Count)
		fmt.Fprintf(w, "%s_sum{%s=\"%s\"} %g\n", family, label, lv, s.SumSeconds())
		fmt.Fprintf(w, "%s_count{%s=\"%s\"} %d\n", family, label, lv, s.Count)
	}
}

// quantiles reported in /metrics and /v1/stats.
var reportedQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}

// write emits all metrics in the Prometheus text exposition format
// (version 0.0.4) using only the standard library.
func (m *metrics) write(w io.Writer, g gauges) {
	emit := func(help, typ, name string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	emit("Demand samples accepted across all streams.", "counter",
		"wcmd_samples_ingested_total", m.samples.Load())
	emit("Ingest batches accepted.", "counter",
		"wcmd_ingest_batches_total", m.batches.Load())
	emit("Ingest batches that surfaced a contract violation.", "counter",
		"wcmd_violating_batches_total", m.violatingBatches.Load())
	emit("Ingest batches decoded from the binary wire format.", "counter",
		"wcmd_ingest_binary_batches_total", m.binaryBatches.Load())
	emit("Query responses replayed from the version-keyed snapshot cache.", "counter",
		"wcmd_query_cache_hits_total", m.cacheHits.Load())
	emit("Query responses computed because no cached answer matched.", "counter",
		"wcmd_query_cache_misses_total", m.cacheMisses.Load())
	emit("Query responses actually rendered (misses minus singleflight sharing).", "counter",
		"wcmd_query_renders_total", m.renders.Load())
	emit("Singleflight calls that led the render for their key.", "counter",
		"wcmd_query_singleflight_leader_total", m.sfLeader.Load())
	emit("Singleflight calls that piggybacked on a concurrent render.", "counter",
		"wcmd_query_singleflight_shared_total", m.sfShared.Load())
	emit("Query requests answered in the binary response format.", "counter",
		"wcmd_query_binary_total", m.binaryQueries.Load())
	emit("Parameterized query cache maps restarted at the entry cap.", "counter",
		"wcmd_query_cache_epoch_resets_total", m.epochResets.Load())
	emit("Live streams.", "gauge", "wcmd_streams", g.streams)
	emit("Samples currently inside sliding windows, summed over streams.", "gauge",
		"wcmd_samples_in_window", g.inWindow)
	emit("Full batch re-extractions run as correctness anchors.", "counter",
		"wcmd_reextractions_total", g.reex)
	emit("Anchor re-extractions that disagreed with the incremental state (expect 0).",
		"counter", "wcmd_reextraction_drift_total", g.drift)
	emit("Contract violations observed, summed over streams.", "counter",
		"wcmd_contract_violations_total", g.violations)
	emit("Handler panics caught by the recovery barrier.", "counter",
		"wcmd_panics_total", m.panics.Load())
	emit("Responses served from a stale cached snapshot, marked degraded.", "counter",
		"wcmd_degraded_responses_total", m.degraded.Load())
	emit("Seconds since the server started.", "gauge",
		"wcmd_uptime_seconds", fmt.Sprintf("%.3f", time.Since(m.start).Seconds()))

	fmt.Fprintf(w, "# HELP wcmd_shed_total Requests turned away by the in-flight limiter, by endpoint class.\n"+
		"# TYPE wcmd_shed_total counter\n"+
		"wcmd_shed_total{class=\"ingest\"} %d\nwcmd_shed_total{class=\"read\"} %d\n",
		g.shedIngest, g.shedRead)
	fmt.Fprintf(w, "# HELP wcmd_inflight_limit Configured in-flight request cap, by endpoint class (0 = unlimited).\n"+
		"# TYPE wcmd_inflight_limit gauge\n"+
		"wcmd_inflight_limit{class=\"ingest\"} %d\nwcmd_inflight_limit{class=\"read\"} %d\n",
		g.limitIngest, g.limitRead)
	fmt.Fprintf(w, "# HELP wcmd_inflight_requests Currently executing requests, by endpoint class.\n"+
		"# TYPE wcmd_inflight_requests gauge\n"+
		"wcmd_inflight_requests{class=\"ingest\"} %d\nwcmd_inflight_requests{class=\"read\"} %d\n",
		g.inflightIngest, g.inflightRead)

	fmt.Fprintf(w, "# HELP wcmd_ingest_coalesce_batches Ingest batches fused per async worker wakeup (1 = no coalescing).\n"+
		"# TYPE wcmd_ingest_coalesce_batches histogram\n")
	cs := m.coalesce.Snapshot()
	for i := 0; i < obs.CountNumBuckets; i++ {
		fmt.Fprintf(w, "wcmd_ingest_coalesce_batches_bucket{le=\"%s\"} %d\n",
			formatLe(obs.CountUpperBound(i)), cs.CumulativeCount(i))
	}
	fmt.Fprintf(w, "wcmd_ingest_coalesce_batches_bucket{le=\"+Inf\"} %d\n", cs.Count)
	fmt.Fprintf(w, "wcmd_ingest_coalesce_batches_sum %d\n", cs.Sum)
	fmt.Fprintf(w, "wcmd_ingest_coalesce_batches_count %d\n", cs.Count)
	if s := m.batchStreams.Snapshot(); s.Count > 0 {
		fmt.Fprintf(w, "# HELP wcmd_query_batch_streams Streams answered per /v1/query request.\n"+
			"# TYPE wcmd_query_batch_streams histogram\n")
		for i := 0; i < obs.CountNumBuckets; i++ {
			fmt.Fprintf(w, "wcmd_query_batch_streams_bucket{le=\"%s\"} %d\n",
				formatLe(obs.CountUpperBound(i)), s.CumulativeCount(i))
		}
		fmt.Fprintf(w, "wcmd_query_batch_streams_bucket{le=\"+Inf\"} %d\n", s.Count)
		fmt.Fprintf(w, "wcmd_query_batch_streams_sum %d\n", s.Sum)
		fmt.Fprintf(w, "wcmd_query_batch_streams_count %d\n", s.Count)
	}
	fmt.Fprintf(w, "# HELP wcmd_ingest_queue_depth Enqueued ingest jobs waiting in each shard's ring at scrape time.\n"+
		"# TYPE wcmd_ingest_queue_depth gauge\n")
	for i, d := range g.queueDepths {
		fmt.Fprintf(w, "wcmd_ingest_queue_depth{shard=\"%d\"} %d\n", i, d)
	}

	if g.trace != nil {
		emit("Finished traces retained by tail-based sampling.", "counter",
			"wcmd_trace_kept_total", g.trace.kept)
		emit("Finished traces discarded (ordinary and not sampled).", "counter",
			"wcmd_trace_dropped_total", g.trace.dropped)
		emit("Traces kept by the 1-in-N sampler alone (no anomaly).", "counter",
			"wcmd_trace_sampled_total", g.trace.sampled)
		emit("Stored traces evicted to keep the store inside its byte cap.", "counter",
			"wcmd_trace_evicted_total", g.trace.evicted)
		emit("Spans dropped because a trace hit its span cap.", "counter",
			"wcmd_trace_truncated_spans_total", g.trace.truncated)
		emit("Bytes currently retained by the trace store.", "gauge",
			"wcmd_trace_store_bytes", g.trace.storeBytes)
		emit("Hard cap on trace store memory (oldest traces evicted).", "gauge",
			"wcmd_trace_store_bytes_limit", g.trace.storeLimit)
		if s := m.traceSpans.Snapshot(); s.Count > 0 {
			fmt.Fprintf(w, "# HELP wcmd_trace_spans Spans recorded per traced request.\n"+
				"# TYPE wcmd_trace_spans histogram\n")
			for i := 0; i < obs.CountNumBuckets; i++ {
				fmt.Fprintf(w, "wcmd_trace_spans_bucket{le=\"%s\"} %d\n",
					formatLe(obs.CountUpperBound(i)), s.CumulativeCount(i))
			}
			fmt.Fprintf(w, "wcmd_trace_spans_bucket{le=\"+Inf\"} %d\n", s.Count)
			fmt.Fprintf(w, "wcmd_trace_spans_sum %d\n", s.Sum)
			fmt.Fprintf(w, "wcmd_trace_spans_count %d\n", s.Count)
		}
	}

	if len(g.tenants) > 0 {
		tenantCounter := func(family, help string, v func(tenantGauges) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", family, help, family)
			for _, t := range g.tenants {
				fmt.Fprintf(w, "%s{tenant=\"%s\",slo=\"%s\"} %d\n",
					family, escapeLabel(t.name), escapeLabel(t.slo), v(t))
			}
		}
		tenantCounter("wcmd_tenant_admitted_total",
			"Requests that passed tenant rate admission, by tenant and SLO class.",
			func(t tenantGauges) uint64 { return t.admitted })
		tenantCounter("wcmd_tenant_throttled_total",
			"Requests rejected by the tenant's token bucket, by tenant and SLO class.",
			func(t tenantGauges) uint64 { return t.throttled })
		tenantCounter("wcmd_tenant_shed_total",
			"Requests turned away by SLO-ordered in-flight shedding, by tenant and SLO class.",
			func(t tenantGauges) uint64 { return t.shed })
		tenantCounter("wcmd_tenant_degraded_total",
			"Throttled or shed reads still answered from the cached degraded path, by tenant and SLO class.",
			func(t tenantGauges) uint64 { return t.degraded })
		fmt.Fprintf(w, "# HELP wcmd_tenant_streams Live streams owned by each tenant.\n"+
			"# TYPE wcmd_tenant_streams gauge\n")
		for _, t := range g.tenants {
			fmt.Fprintf(w, "wcmd_tenant_streams{tenant=\"%s\",slo=\"%s\"} %d\n",
				escapeLabel(t.name), escapeLabel(t.slo), t.streams)
		}
		fmt.Fprintf(w, "# HELP wcmd_tenant_request_latency_seconds Handler latency distribution, by tenant and SLO class.\n"+
			"# TYPE wcmd_tenant_request_latency_seconds histogram\n")
		for _, t := range g.tenants {
			lt, ls := escapeLabel(t.name), escapeLabel(t.slo)
			for _, i := range emittedBuckets {
				fmt.Fprintf(w, "wcmd_tenant_request_latency_seconds_bucket{tenant=\"%s\",slo=\"%s\",le=\"%s\"} %d\n",
					lt, ls, formatLe(obs.UpperBoundSeconds(i)), t.latency.CumulativeCount(i))
			}
			fmt.Fprintf(w, "wcmd_tenant_request_latency_seconds_bucket{tenant=\"%s\",slo=\"%s\",le=\"+Inf\"} %d\n",
				lt, ls, t.latency.Count)
			fmt.Fprintf(w, "wcmd_tenant_request_latency_seconds_sum{tenant=\"%s\",slo=\"%s\"} %g\n",
				lt, ls, t.latency.SumSeconds())
			fmt.Fprintf(w, "wcmd_tenant_request_latency_seconds_count{tenant=\"%s\",slo=\"%s\"} %d\n",
				lt, ls, t.latency.Count)
		}
	}

	if g.wal != nil {
		emit("Bytes appended to the write-ahead log.", "counter",
			"wcmd_wal_bytes_total", g.wal.bytes)
		emit("Records appended to the write-ahead log.", "counter",
			"wcmd_wal_appends_total", g.wal.appends)
		emit("Group-commit fsyncs of WAL segments.", "counter",
			"wcmd_wal_fsyncs_total", g.wal.fsyncs)
		emit("Torn WAL tails truncated during recovery (expect 0 or 1 per crash).", "counter",
			"wcmd_wal_torn_tails_total", g.wal.torn)
		emit("Ingest batches replayed from the WAL at boot.", "counter",
			"wcmd_recovery_replayed_batches", g.wal.replayedBatches)
		emit("Demand samples replayed from the WAL at boot.", "counter",
			"wcmd_recovery_replayed_samples", g.wal.replayedSamples)
		emit("Streams restored from snapshots and WAL replay at boot.", "counter",
			"wcmd_recovery_streams", g.wal.recoveredStreams)
		clean := 0
		if g.wal.cleanStart {
			clean = 1
		}
		emit("Whether this boot found a clean-shutdown marker (1) or ran crash recovery (0).",
			"gauge", "wcmd_wal_clean_start", clean)
	}

	fmt.Fprintf(w, "# HELP wcmd_build_info Build metadata; the value is always 1.\n"+
		"# TYPE wcmd_build_info gauge\n"+
		"wcmd_build_info{go_version=\"%s\",version=\"%s\",revision=\"%s\"} 1\n",
		escapeLabel(m.build.goVersion), escapeLabel(m.build.version), escapeLabel(m.build.revision))

	fmt.Fprintf(w, "# HELP wcmd_requests_total Requests served, by endpoint.\n# TYPE wcmd_requests_total counter\n")
	for _, name := range m.epNames {
		fmt.Fprintf(w, "wcmd_requests_total{endpoint=\"%s\"} %d\n",
			escapeLabel(name), m.endpoints[name].requests.Load())
	}
	fmt.Fprintf(w, "# HELP wcmd_request_errors_total Responses with status >= 400, by endpoint.\n# TYPE wcmd_request_errors_total counter\n")
	for _, name := range m.epNames {
		fmt.Fprintf(w, "wcmd_request_errors_total{endpoint=\"%s\"} %d\n",
			escapeLabel(name), m.endpoints[name].errors.Load())
	}

	writeHistogramFamily(w, "wcmd_request_latency_seconds",
		"Handler latency distribution, by endpoint.", "endpoint", m.epNames,
		func(name string) obs.HistSnapshot { return m.endpoints[name].latency.Snapshot() })
	fmt.Fprintf(w, "# HELP wcmd_request_latency_quantile_seconds Estimated handler latency quantiles, by endpoint.\n"+
		"# TYPE wcmd_request_latency_quantile_seconds gauge\n")
	for _, name := range m.epNames {
		s := m.endpoints[name].latency.Snapshot()
		for _, rq := range reportedQuantiles {
			fmt.Fprintf(w, "wcmd_request_latency_quantile_seconds{endpoint=\"%s\",quantile=\"%s\"} %g\n",
				escapeLabel(name), rq.label, s.Quantile(rq.q))
		}
	}

	writeHistogramFamily(w, "wcmd_stage_latency_seconds",
		"Hot-path stage latency distribution (decode/update/render, cache hit/miss).",
		"stage", stageNames,
		func(name string) obs.HistSnapshot { return m.stages[name].Snapshot() })
}
