package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"wcm/internal/obs"
	"wcm/internal/stream"
)

// ---- a small Prometheus text-format parser for validity checks --------------

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses a text-format 0.0.4 exposition strictly enough to catch
// the mistakes hand-rolled writers make: samples without HELP/TYPE,
// duplicate TYPE lines, malformed label escaping, unparsable values.
func parseProm(t *testing.T, body string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	help := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			help[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if !help[name] {
				t.Fatalf("line %d: TYPE for %s before/without HELP", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		samples = append(samples, parsePromSample(t, ln+1, line))
	}
	return types, samples
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c in %q", ln, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimSpace(rest)
	v, err := parsePromValue(rest)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

func parsePromValue(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// seriesKey identifies one histogram series: all labels except le.
func seriesKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, s.labels[k])
	}
	return b.String()
}

// TestPrometheusExpositionValid drives mixed traffic through the server and
// then checks the whole /metrics payload at the parser level: HELP/TYPE per
// family, parsable samples, and — for every histogram series — cumulative
// le-ordered buckets terminated by le="+Inf" whose value equals _count.
func TestPrometheusExpositionValid(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 64, MaxK: 8}, SelfCurves: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, ct, body string) int {
		req, _ := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/streams/a/ingest", "application/json",
		`{"t":[10,20,30],"demand":[5,7,2]}`); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	bin := AppendBinaryBatch(nil, []int64{40, 50}, []int64{9, 1})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/streams/a/ingest", bytes.NewReader(bin))
	req.Header.Set("Content-Type", ContentTypeBinary)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("binary ingest: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	post("/v1/streams/a/ingest", "application/json", `{"bogus":true}`) // a 400
	get("/v1/streams/a/curves")                                        // miss
	get("/v1/streams/a/curves")                                        // hit
	get("/healthz")
	get("/v1/stats")
	get("/debug/self")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)

	types, samples := parseProm(t, body)

	// Every sample belongs to an announced family (histogram samples via
	// their _bucket/_sum/_count suffix).
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base, ok := strings.CutSuffix(name, suf)
			if ok && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for _, sm := range samples {
		if _, ok := types[family(sm.name)]; !ok {
			t.Fatalf("sample %s has no HELP/TYPE", sm.name)
		}
	}

	// Histogram series: buckets appear in ascending le order, counts are
	// cumulative, the final bucket is le="+Inf" and matches _count.
	type histSeries struct {
		lastLe    float64
		lastCount float64
		infCount  float64
		hasInf    bool
		count     float64
		hasCount  bool
	}
	hists := make(map[string]*histSeries)
	get2 := func(k string) *histSeries {
		h := hists[k]
		if h == nil {
			h = &histSeries{lastLe: math.Inf(-1)}
			hists[k] = h
		}
		return h
	}
	nHistogramFamilies := 0
	for name, typ := range types {
		if typ == "histogram" {
			nHistogramFamilies++
			_ = name
		}
	}
	if nHistogramFamilies < 2 { // request + stage latency
		t.Fatalf("expected ≥2 histogram families, got %d", nHistogramFamilies)
	}
	for _, sm := range samples {
		base := family(sm.name)
		if types[base] != "histogram" {
			continue
		}
		key := base + "|" + seriesKey(sm)
		h := get2(key)
		switch {
		case strings.HasSuffix(sm.name, "_bucket"):
			le, err := parsePromValue(sm.labels["le"])
			if err != nil {
				t.Fatalf("series %s: bad le %q", key, sm.labels["le"])
			}
			if le <= h.lastLe {
				t.Fatalf("series %s: le not ascending (%v after %v)", key, le, h.lastLe)
			}
			if sm.value < h.lastCount {
				t.Fatalf("series %s: bucket counts not cumulative at le=%v", key, le)
			}
			h.lastLe, h.lastCount = le, sm.value
			if math.IsInf(le, 1) {
				h.hasInf, h.infCount = true, sm.value
			}
		case strings.HasSuffix(sm.name, "_count"):
			h.count, h.hasCount = sm.value, true
		}
	}
	for key, h := range hists {
		if !h.hasInf {
			t.Fatalf("series %s: no le=\"+Inf\" bucket", key)
		}
		if !math.IsInf(h.lastLe, 1) {
			t.Fatalf("series %s: +Inf is not the last bucket", key)
		}
		if !h.hasCount || h.count != h.infCount {
			t.Fatalf("series %s: _count %v != +Inf bucket %v", key, h.count, h.infCount)
		}
	}

	// Spot checks the parser can't express: the request-latency family saw
	// the ingest traffic, and build info carries a Go version.
	ingestKey := "wcmd_request_latency_seconds|endpoint=\"ingest\","
	if h := hists[ingestKey]; h == nil || h.infCount < 3 {
		t.Fatalf("ingest latency histogram missing or undercounted: %+v", hists[ingestKey])
	}
	var foundBuild bool
	for _, sm := range samples {
		if sm.name == "wcmd_build_info" {
			foundBuild = true
			if sm.value != 1 || !strings.HasPrefix(sm.labels["go_version"], "go") {
				t.Fatalf("build info: %+v", sm)
			}
		}
	}
	if !foundBuild {
		t.Fatal("wcmd_build_info missing")
	}

	// The per-endpoint request counters and histogram counts agree (the
	// /metrics request itself is observed only after its handler returns).
	requests := make(map[string]float64)
	for _, sm := range samples {
		if sm.name == "wcmd_requests_total" {
			requests[sm.labels["endpoint"]] = sm.value
		}
	}
	for ep, n := range requests {
		key := "wcmd_request_latency_seconds|endpoint=\"" + ep + "\","
		if h := hists[key]; h == nil || h.count != n {
			t.Fatalf("endpoint %s: requests %v vs histogram count %+v", ep, n, hists[key])
		}
	}
}

// TestTraceIDPropagation checks both halves of the trace-ID contract: a
// client-supplied X-Request-Id is echoed, and a missing one is generated.
func TestTraceIDPropagation(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 32, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-1" {
		t.Fatalf("propagated id = %q", got)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); len(got) != 25 || got[8] != '-' {
		t.Fatalf("generated id = %q", got)
	}

	// Oversized client IDs are replaced, not echoed.
	req, _ = http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", strings.Repeat("x", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); len(got) > maxTraceIDLen {
		t.Fatalf("oversized id echoed back: %q", got)
	}
}

// TestSlowRequestLogged lowers the slow threshold to zero duration above
// zero so every request trips it, and checks the Warn line carries the
// trace ID and endpoint.
func TestSlowRequestLogged(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger("json", slog.LevelInfo, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Stream:      stream.Config{Window: 32, MaxK: 4},
		Logger:      logger,
		SlowRequest: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "slow-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("no JSON log line, got %q", buf.String())
	}
	if line["msg"] != "slow request" || line["trace_id"] != "slow-trace" ||
		line["endpoint"] != "healthz" || line["level"] != "WARN" {
		t.Fatalf("slow-request line = %v", line)
	}
}

// TestSlowRequestDisabled: a negative threshold logs nothing even for slow
// requests.
func TestSlowRequestDisabled(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger("json", slog.LevelInfo, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Stream:      stream.Config{Window: 32, MaxK: 4},
		Logger:      logger,
		SlowRequest: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if buf.Len() != 0 {
		t.Fatalf("unexpected log output: %q", buf.String())
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 32, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !strings.HasPrefix(h.GoVersion, "go") ||
		h.UptimeSeconds < 0 || h.Version == "" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 32, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/streams/x/ingest", "application/json",
			strings.NewReader(fmt.Sprintf(`{"t":[%d],"demand":[4]}`, 10*(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ing, ok := st.Endpoints["ingest"]
	if !ok || ing.Count != 3 || ing.P50Seconds <= 0 || ing.P99Seconds < ing.P50Seconds {
		t.Fatalf("ingest stats = %+v (present=%v)", ing, ok)
	}
	if _, ok := st.Stages[stageDecode]; !ok {
		t.Fatalf("decode stage missing from %+v", st.Stages)
	}
	if _, ok := st.Endpoints["delete"]; ok {
		t.Fatal("untouched endpoint reported")
	}
}

func TestDebugSelf(t *testing.T) {
	// Disabled by default.
	s, err := New(Config{Stream: stream.Config{Window: 32, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	resp, err := http.Get(srv.URL + "/debug/self")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled self: %d", resp.StatusCode)
	}

	// Enabled: after some traffic the service characterizes itself.
	s, err = New(Config{Stream: stream.Config{Window: 32, MaxK: 4}, SelfCurves: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv = httptest.NewServer(s.Handler())
	defer srv.Close()
	for i := 0; i < 5; i++ {
		r, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err = http.Get(srv.URL + "/debug/self")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self: %d", resp.StatusCode)
	}
	var sr selfResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Observed < 5 || sr.Total < 5 {
		t.Fatalf("self observed %d total %d", sr.Observed, sr.Total)
	}
	if len(sr.UpperUs) < 2 || sr.UpperUs[1] < 1 {
		t.Fatalf("γᵘ = %v", sr.UpperUs)
	}
	if len(sr.LowerUs) >= 2 && sr.LowerUs[1] > sr.UpperUs[1] {
		t.Fatalf("γˡ(1)=%d > γᵘ(1)=%d", sr.LowerUs[1], sr.UpperUs[1])
	}
}
