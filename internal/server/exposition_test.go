package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm/internal/obs"
	"wcm/internal/qos"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// exposureFixture boots a server with every optional metric source on — a
// WAL, tracing at 1-in-1, two configured tenants, self-curves and a panic
// fault — and drives one request of each interesting outcome through it: a
// JSON ingest per tenant, a 400, a cache miss and hit, a /v1/query and an
// injected panic.
func exposureFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards:      2,
		Stream:      streamCfg,
		TraceSample: 1,
		SelfCurves:  true,
		Tenants: []qos.TenantConfig{
			{Name: "acme", SLO: "batch"},
			{Name: "zeta", SLO: "besteffort"},
		},
		Faults: []Fault{{Point: "handler:minfreq", Kind: FaultPanic}},
	}
	cfg.WAL = openTestWAL(t, t.TempDir(), cfg, wal.PolicyBatch)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)
	send := func(method, path, tenant, body string, want int) {
		t.Helper()
		if code, _, _ := doAs(t, tenant, method, ts.URL+path, body); code != want {
			t.Fatalf("%s %s: %d, want %d", method, path, code, want)
		}
	}
	send("POST", "/v1/streams/g/ingest", "acme", `{"t":[0,100,200],"demand":[5,7,6]}`, http.StatusOK)
	send("POST", "/v1/streams/h/ingest", "zeta", `{"t":[0,100],"demand":[3,4]}`, http.StatusOK)
	send("POST", "/v1/streams/g/ingest", "", `{"bogus":true}`, http.StatusBadRequest)
	send("GET", "/v1/streams/g/curves", "", "", http.StatusOK) // miss
	send("GET", "/v1/streams/g/curves", "", "", http.StatusOK) // hit
	send("POST", "/v1/query", "", `{"ids":["g","h"],"curves":true}`, http.StatusOK)
	send("GET", "/v1/streams/g/minfreq?freq_hz=1", "", "", http.StatusInternalServerError)
	return s, ts
}

// seriesSet reduces a /metrics body to its shape: HELP and TYPE lines
// verbatim, then each sample's series key (name plus labels) without its
// value, in exposition order. wcmd_build_info's label values depend on the
// toolchain and VCS stamp, so they are masked.
func seriesSet(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if strings.HasPrefix(line, "wcmd_build_info{") {
			line = `wcmd_build_info{go_version="*",version="*",revision="*"}`
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGoldenSeries pins the /metrics exposition's family and series
// set, in order, against testdata/metrics_series.golden: a dashboard or
// scraper keyed on a series name or label set keeps finding it.
func TestMetricsGoldenSeries(t *testing.T) {
	_, ts := exposureFixture(t)
	_, _, body := rawGet(t, ts.URL+"/metrics")
	got := seriesSet(string(body))
	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("series set differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("series set has %d lines, golden has %d", len(gl), len(wl))
}

// TestStreamCountersSurviveDelete: the stream-summed counters
// (violations, anchor re-extractions, drift) are Prometheus counters, so
// deleting the stream that produced them must not move them backwards —
// a drop reads as a counter reset to rate().
func TestStreamCountersSurviveDelete(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 8, MaxK: 4}})
	ingest := func(body string) {
		t.Helper()
		if code, m := doJSON(t, "POST", ts.URL+"/v1/streams/v/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest %s: %d %v", body, code, m)
		}
	}
	ingest(`{"t":[0,100,200,300,400,500,600,700,800],"demand":[5,5,5,5,5,5,5,5,5]}`)
	if code, m := doJSON(t, "POST", ts.URL+"/v1/streams/v/contract",
		`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
		t.Fatalf("contract: %d %v", code, m)
	}
	for i := 0; i < 3; i++ {
		ingest(fmt.Sprintf(`{"t":[%d],"demand":[1000]}`, 900+100*i))
	}
	series := []string{"wcmd_contract_violations_total", "wcmd_reextractions_total", "wcmd_reextraction_drift_total"}
	read := func() []int64 {
		out := make([]int64, len(series))
		for i, name := range series {
			v, err := strconv.ParseInt(metricValue(t, ts.URL, name), 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[i] = v
		}
		return out
	}
	before := read()
	if before[0] != 3 || before[1] == 0 {
		t.Fatalf("fixture produced violations=%d reextractions=%d, want 3 and > 0", before[0], before[1])
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/streams/v", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	after := read()
	for i, name := range series {
		if after[i] < before[i] {
			t.Errorf("%s fell from %d to %d across DELETE", name, before[i], after[i])
		}
	}
}

// statsResponse is the /v1/stats document as typed fields, for decoding.
type statsResponse struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Panics        uint64                  `json:"panics"`
	Degraded      uint64                  `json:"degraded"`
	Limits        map[string]statsLimit   `json:"limits"`
	WAL           *statsWAL               `json:"wal,omitempty"`
	Trace         *statsTrace             `json:"trace,omitempty"`
	Tenants       map[string]statsTenant  `json:"tenants"`
	Endpoints     map[string]statsLatency `json:"endpoints"`
	Stages        map[string]statsLatency `json:"stages"`
}

type statsLatency struct {
	Count       uint64  `json:"count"`
	Errors      uint64  `json:"errors,omitempty"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

type statsLimit struct {
	Limit    int64  `json:"limit"`
	Inflight int64  `json:"inflight"`
	Shed     uint64 `json:"shed"`
}

type statsWAL struct {
	BytesTotal       uint64 `json:"bytes_total"`
	AppendsTotal     uint64 `json:"appends_total"`
	FsyncsTotal      uint64 `json:"fsyncs_total"`
	TornTails        uint64 `json:"torn_tails"`
	ReplayedBatches  uint64 `json:"replayed_batches"`
	ReplayedSamples  uint64 `json:"replayed_samples"`
	RecoveredStreams uint64 `json:"recovered_streams"`
	CleanStart       bool   `json:"clean_start"`
}

type statsTrace struct {
	Kept            uint64 `json:"kept"`
	Dropped         uint64 `json:"dropped"`
	Sampled         uint64 `json:"sampled"`
	Evicted         uint64 `json:"evicted"`
	TruncatedSpans  uint64 `json:"truncated_spans"`
	StoreBytes      int64  `json:"store_bytes"`
	StoreBytesLimit int64  `json:"store_bytes_limit"`
}

type statsTenant struct {
	SLO       string       `json:"slo"`
	Streams   int64        `json:"streams"`
	Admitted  uint64       `json:"admitted"`
	Throttled uint64       `json:"throttled"`
	Shed      uint64       `json:"shed"`
	Degraded  uint64       `json:"degraded"`
	Latency   statsLatency `json:"latency"`
}

func summaryOf(snap obs.HistSnapshot, errors uint64) statsLatency {
	out := statsLatency{
		Count:      snap.Count,
		Errors:     errors,
		P50Seconds: snap.Quantile(0.50),
		P95Seconds: snap.Quantile(0.95),
		P99Seconds: snap.Quantile(0.99),
	}
	if snap.Count > 0 {
		out.MeanSeconds = snap.SumSeconds() / float64(snap.Count)
	}
	return out
}

// wantStats assembles the /v1/stats document field by field from the
// server's counters — an independent derivation of what the registry
// renders. Uptime is left zero.
func wantStats(s *Server) statsResponse {
	m := s.metrics
	limit := func(l *inflightLimiter) statsLimit {
		return statsLimit{Limit: l.Limit(), Inflight: l.Inflight(), Shed: l.Shed()}
	}
	want := statsResponse{
		Panics:    m.panics.Load(),
		Degraded:  m.degraded.Load(),
		Limits:    map[string]statsLimit{"ingest": limit(s.limIngest), "read": limit(s.limRead)},
		Tenants:   map[string]statsTenant{},
		Endpoints: map[string]statsLatency{},
		Stages:    map[string]statsLatency{},
	}
	if w := s.wal; w != nil {
		want.WAL = &statsWAL{
			BytesTotal:       w.BytesAppended(),
			AppendsTotal:     w.Appends(),
			FsyncsTotal:      w.Fsyncs(),
			TornTails:        w.TornTails(),
			ReplayedBatches:  s.recovered.batches.Load(),
			ReplayedSamples:  s.recovered.samples.Load(),
			RecoveredStreams: s.recovered.streams.Load(),
			CleanStart:       w.CleanStart(),
		}
	}
	if tr := s.tracer; tr != nil {
		want.Trace = &statsTrace{
			Kept:            tr.Kept(),
			Dropped:         tr.Dropped(),
			Sampled:         tr.Sampled(),
			Evicted:         tr.Evicted(),
			TruncatedSpans:  tr.TruncatedSpans(),
			StoreBytes:      tr.StoreBytes(),
			StoreBytesLimit: tr.StoreLimit(),
		}
	}
	for _, name := range s.qos.names {
		ts := s.qos.state(name)
		want.Tenants[name] = statsTenant{
			SLO:       ts.slo.String(),
			Streams:   ts.streams.Load(),
			Admitted:  ts.admitted.Load(),
			Throttled: ts.throttled.Load(),
			Shed:      ts.shed.Load(),
			Degraded:  ts.degraded.Load(),
			Latency:   summaryOf(ts.latency.Snapshot(), 0),
		}
	}
	for _, name := range m.epNames {
		if ep := m.endpoints[name]; ep.requests.Load() > 0 {
			want.Endpoints[name] = summaryOf(ep.latency.Snapshot(), ep.errors.Load())
		}
	}
	for _, name := range stageNames {
		if h := m.stages[name]; h.Count() > 0 {
			want.Stages[name] = summaryOf(h.Snapshot(), 0)
		}
	}
	return want
}

// renderStats calls the /v1/stats handler directly (no instrumentation,
// so the call moves no counter) and decodes its document, retrying until
// the counters are quiet around it: instrumentation records each request
// (endpoint histogram, trace retention) after its response is written, so
// the fixture's last requests may still be landing.
func renderStats(t *testing.T, s *Server) (got, want statsResponse) {
	t.Helper()
	for try := 0; try < 100; try++ {
		before := wantStats(s)
		t0 := time.Since(s.metrics.start).Seconds()
		rec := httptest.NewRecorder()
		s.handleStats(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		t1 := time.Since(s.metrics.start).Seconds()
		want = wantStats(s)
		if !reflect.DeepEqual(before, want) {
			time.Sleep(time.Millisecond)
			continue
		}
		got = statsResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("decode %s: %v", rec.Body.Bytes(), err)
		}
		if got.UptimeSeconds < t0 || got.UptimeSeconds > t1 {
			t.Errorf("uptime_seconds %v outside [%v, %v]", got.UptimeSeconds, t0, t1)
		}
		got.UptimeSeconds = 0
		return got, want
	}
	t.Fatal("counters never went quiet")
	return got, want
}

// TestStatsDocument checks /v1/stats value for value against the
// server's own counters — on a fresh server, where every block is empty
// but present, and after the fixture traffic — plus the readings an
// operator relies on: durable ingests moved the WAL counters, the
// injected panic was counted once, the trace store sits inside its cap,
// and /debug/self breaks demand down by the ingest stages.
func TestStatsDocument(t *testing.T) {
	fresh, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := renderStats(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh server:\n got  %+v\n want %+v", got, want)
	}

	s, ts := exposureFixture(t)
	got, want := renderStats(t, s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after traffic:\n got  %+v\n want %+v", got, want)
	}
	if got.WAL == nil || got.WAL.AppendsTotal == 0 || got.WAL.FsyncsTotal == 0 {
		t.Errorf("wal block after durable ingests: %+v", got.WAL)
	}
	if got.Panics != 1 {
		t.Errorf("panics = %d, want 1", got.Panics)
	}
	if tr := got.Trace; tr == nil || tr.StoreBytes <= 0 || tr.StoreBytes > tr.StoreBytesLimit {
		t.Errorf("trace store bytes outside (0, limit]: %+v", tr)
	}
	code, m := doJSON(t, "GET", ts.URL+"/debug/self", "")
	if code != http.StatusOK {
		t.Fatalf("/debug/self: %d %v", code, m)
	}
	stages, ok := m["stages"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/self has no stages block: %v", m)
	}
	for _, name := range []string{stageDecode, stageUpdate, stageRender} {
		st, ok := stages[name].(map[string]any)
		if !ok {
			t.Fatalf("stage %q missing from /debug/self: %v", name, stages)
		}
		if st["count"].(float64) < 1 || st["mean_us"].(float64) < 0 {
			t.Errorf("stage %q = %v", name, st)
		}
	}
}

// TestStreamCountersMonotoneUnderChurn races stream churn (create, violate
// the contract, DELETE) against scrapes: every scrape must read a
// violation total at least as large as the one before, and the last one
// must count every violation of every deleted stream.
func TestStreamCountersMonotoneUnderChurn(t *testing.T) {
	s, err := New(Config{Shards: 4, Stream: stream.Config{Window: 8, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)
	violations := func() int64 {
		var b strings.Builder
		s.registry.WritePrometheus(&b)
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "wcmd_contract_violations_total "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Errorf("violations value %q: %v", v, err)
				}
				return n
			}
		}
		t.Error("wcmd_contract_violations_total missing")
		return 0
	}
	const writers, streams = 4, 10
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < streams; i++ {
				url := fmt.Sprintf("%s/v1/streams/c%d-%d", ts.URL, g, i)
				for _, step := range []struct{ method, path, body string }{
					{"POST", "/ingest", `{"t":[0,100,200],"demand":[5,5,5]}`},
					{"POST", "/contract", `{"upper":[0,100,200],"lower":[0,0,0]}`},
					{"POST", "/ingest", `{"t":[300],"demand":[1000]}`},
					{"POST", "/ingest", `{"t":[400],"demand":[1000]}`},
					{"DELETE", "", ""},
				} {
					req, _ := http.NewRequest(step.method, url+step.path, strings.NewReader(step.body))
					resp, err := http.DefaultClient.Do(req) // not doAs: it would t.Fatal off the test goroutine
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode >= 300 {
						t.Errorf("%s %s: %d", step.method, url+step.path, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := violations()
		if v < last {
			t.Fatalf("violations fell from %d to %d", last, v)
		}
		last = v
	}
	if want := int64(writers * streams * 2); last != want {
		t.Fatalf("violations after churn = %d, want %d", last, want)
	}
}
