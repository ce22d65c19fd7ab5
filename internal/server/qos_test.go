package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wcm/internal/qos"
)

// doAs issues a request tagged with a tenant header and returns status,
// headers and body.
func doAs(t *testing.T, tenant, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Wcm-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// tenantRecord fetches one tenant's row from /v1/tenants.
func tenantRecord(t *testing.T, baseURL, name string) tenantJSON {
	t.Helper()
	_, _, body := rawGet(t, baseURL+"/v1/tenants")
	var resp tenantsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("/v1/tenants: %v in %s", err, body)
	}
	for _, rec := range resp.Tenants {
		if rec.Name == name {
			return rec
		}
	}
	t.Fatalf("tenant %q not in /v1/tenants: %s", name, body)
	return tenantJSON{}
}

// TestTenantRateIsolation is the e2e QoS isolation check for the token
// bucket: a rate-limited tenant blowing through its budget gets throttled
// with a deficit-derived Retry-After while an unlimited tenant and
// untagged traffic on the same server stay entirely unaffected.
func TestTenantRateIsolation(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{
		{Name: "lim", RatePerSec: 1, Burst: 2},
		{Name: "free"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var throttled int
	for i := 0; i < 5; i++ {
		code, hdr, body := doAs(t, "lim", "POST", ts.URL+"/v1/streams/iso/ingest",
			fmt.Sprintf(`{"t":[%d],"demand":[1]}`, 100*(i+1)))
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			throttled++
			if !strings.Contains(string(body), "over rate limit") {
				t.Fatalf("throttle body: %s", body)
			}
			if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
				t.Fatalf("throttle Retry-After = %q", hdr.Get("Retry-After"))
			}
		default:
			t.Fatalf("ingest %d: status %d %s", i, code, body)
		}
	}
	if throttled != 3 { // burst 2 admits the first two instantly
		t.Fatalf("throttled %d of 5, want 3", throttled)
	}

	// The other tenant and untagged traffic never notice.
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"t":[%d],"demand":[1]}`, 1000+100*i)
		if code, _, resp := doAs(t, "free", "POST", ts.URL+"/v1/streams/iso/ingest", body); code != http.StatusOK {
			t.Fatalf("free ingest: %d %s", code, resp)
		}
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/iso/curves", ""); code != http.StatusOK {
			t.Fatalf("untagged read: %d", code)
		}
	}

	lim := tenantRecord(t, ts.URL, "lim")
	if lim.Throttled != 3 || lim.Admitted != 2 {
		t.Fatalf("lim counters: %+v", lim)
	}
	free := tenantRecord(t, ts.URL, "free")
	if free.Throttled != 0 || free.Admitted != 5 {
		t.Fatalf("free counters: %+v", free)
	}
	if got := metricValue(t, ts.URL, `wcmd_tenant_throttled_total{tenant="lim",slo="interactive"}`); got != "3" {
		t.Fatalf("wcmd_tenant_throttled_total{lim} = %q", got)
	}
}

// TestTenantThrottledReadDegrades checks mixed-criticality degradation: a
// read rejected by the tenant's token bucket is still answered 200 from
// the cached path and counted degraded, not throttled.
func TestTenantThrottledReadDegrades(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{
		{Name: "ro", SLO: "batch", RatePerSec: 1, Burst: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/dg/ingest", `{"t":[0,100],"demand":[2,3]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	code, _, good := rawGet(t, ts.URL+"/v1/streams/dg/curves") // untagged warms the slot
	if code != http.StatusOK {
		t.Fatalf("warm read: %d", code)
	}

	// First tagged read spends ro's only token; the second is throttled and
	// must ride the cached answer instead of bouncing.
	if code, _, _ := doAs(t, "ro", "GET", ts.URL+"/v1/streams/dg/curves", ""); code != http.StatusOK {
		t.Fatalf("ro read 1: %d", code)
	}
	code, hdr, body := doAs(t, "ro", "GET", ts.URL+"/v1/streams/dg/curves", "")
	if code != http.StatusOK || string(body) != string(good) {
		t.Fatalf("throttled read: %d %s", code, body)
	}
	if hdr.Get("X-Wcm-Degraded") != "" {
		t.Fatalf("fresh cached answer marked degraded") // version unchanged ⇒ normal serve
	}
	ro := tenantRecord(t, ts.URL, "ro")
	if ro.Admitted != 1 || ro.Degraded != 1 || ro.Throttled != 0 {
		t.Fatalf("ro counters after degraded read: %+v", ro)
	}
	if ro.SLO != "batch" {
		t.Fatalf("ro slo = %q", ro.SLO)
	}
}

// TestThrottledReadValidates is the regression test for parameter checks
// on the shed fallback: a throttled read with out-of-range parameters gets
// the same 400 an admitted one does, not 429 plus Retry-After.
func TestThrottledReadValidates(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{
		{Name: "lim", RatePerSec: 1, Burst: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/v/ingest", `{"t":[0,100],"demand":[2,3]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}

	// The first request spends lim's only token; the rest are throttled.
	for _, q := range [][2]string{
		{"/v1/streams/v/check", `{"freq_hz":0,"latency_ns":10,"buffer":3}`},
		{"/v1/streams/v/check", `{"freq_hz":0,"latency_ns":10,"buffer":3}`},
		{"/v1/streams/v/check", `{"freq_hz":1000000,"latency_ns":-1,"buffer":3}`},
		{"/v1/streams/v/check", `{"freq_hz":1000000,"latency_ns":10,"buffer":-1}`},
		{"/v1/streams/v/minfreq?b=-1", ""},
	} {
		method := "GET"
		if q[1] != "" {
			method = "POST"
		}
		code, hdr, body := doAs(t, "lim", method, ts.URL+q[0], q[1])
		if code != http.StatusBadRequest || hdr.Get("Retry-After") != "" {
			t.Fatalf("%s %s: %d Retry-After=%q %s", q[0], q[1], code, hdr.Get("Retry-After"), body)
		}
	}
	if lim := tenantRecord(t, ts.URL, "lim"); lim.Admitted != 1 || lim.Throttled != 4 {
		t.Fatalf("lim counters: %+v (want 1 admitted, 4 throttled)", lim)
	}
}

// TestSLOShedOrder saturates half the read budget and checks the ordered
// thresholds: besteffort is shed at limit/2 while batch and interactive
// are still admitted.
func TestSLOShedOrder(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, MaxInflightRead: 8, Tenants: []qos.TenantConfig{
		{Name: "be", SLO: "besteffort"},
		{Name: "ba", SLO: "batch"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park 4 interactive reads on /check bodies that never finish: the
	// read level sits exactly at the besteffort threshold (8/2).
	const parked = 4
	writers := make([]*io.PipeWriter, parked)
	done := make(chan struct{}, parked)
	for i := range writers {
		pr, pw := io.Pipe()
		writers[i] = pw
		go func() {
			req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/x/check", pr)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.limRead.Inflight() < parked {
		if time.Now().After(deadline) {
			t.Fatal("parked reads never occupied the limiter")
		}
		time.Sleep(time.Millisecond)
	}

	if code, _, body := doAs(t, "be", "GET", ts.URL+"/v1/streams/nope/curves", ""); code != http.StatusTooManyRequests {
		t.Fatalf("besteffort at limit/2: %d %s, want shed", code, body)
	}
	// Batch (threshold 6) and interactive (threshold 8) still get through —
	// through to a 404, which proves the handler ran.
	if code, _, _ := doAs(t, "ba", "GET", ts.URL+"/v1/streams/nope/curves", ""); code != http.StatusNotFound {
		t.Fatalf("batch at limit/2 not admitted")
	}
	if code, _, _ := doAs(t, "", "GET", ts.URL+"/v1/streams/nope/curves", ""); code != http.StatusNotFound {
		t.Fatalf("interactive at limit/2 not admitted")
	}

	be := tenantRecord(t, ts.URL, "be")
	if be.Shed != 1 {
		t.Fatalf("be.shed = %d, want 1", be.Shed)
	}
	for _, pw := range writers {
		pw.Close()
	}
	for i := 0; i < parked; i++ {
		<-done
	}
}

// TestTenantStreamQuota checks creation-time quota enforcement and that
// delete returns the slot.
func TestTenantStreamQuota(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{
		{Name: "q", MaxStreams: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(id string) (int, []byte) {
		code, _, body := doAs(t, "q", "POST", ts.URL+"/v1/streams/"+id+"/ingest", `{"t":[100],"demand":[1]}`)
		return code, body
	}
	for _, id := range []string{"q-1", "q-2"} {
		if code, body := mk(id); code != http.StatusOK {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	code, body := mk("q-3")
	if code != http.StatusTooManyRequests || !strings.Contains(string(body), "stream quota exceeded") {
		t.Fatalf("over-quota create: %d %s", code, body)
	}
	if rec := tenantRecord(t, ts.URL, "q"); rec.Streams != 2 || rec.MaxStreams != 2 {
		t.Fatalf("q streams: %+v", rec)
	}
	// Existing streams stay writable over the quota; only creation is gated.
	if code, _, _ := doAs(t, "q", "POST", ts.URL+"/v1/streams/q-1/ingest", `{"t":[200],"demand":[1]}`); code != http.StatusOK {
		t.Fatalf("write to existing stream blocked by quota")
	}
	// Untagged traffic lands on the (unlimited) default tenant.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/other/ingest", `{"t":[100],"demand":[1]}`); code != http.StatusOK {
		t.Fatalf("default-tenant create gated")
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/streams/q-1", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, body := mk("q-3"); code != http.StatusOK {
		t.Fatalf("create after delete freed a slot: %d %s", code, body)
	}
	if rec := tenantRecord(t, ts.URL, "q"); rec.Streams != 2 {
		t.Fatalf("q streams after delete+create: %+v", rec)
	}
}

// TestRetryAfterProportional pins the hint arithmetic: shed hints grow
// with windowed pressure per unit of capacity, deficit hints round the
// token-refill gap up to whole seconds, and both clamp to [floor, max].
func TestRetryAfterProportional(t *testing.T) {
	l := newLimiter(2)
	now := time.Now().UnixNano()
	if got := l.shedHint(); got != retryAfterFloorSeconds {
		t.Fatalf("idle shedHint = %d", got)
	}
	l.noteShed(now)
	if got := l.shedHint(); got != retryAfterFloorSeconds {
		t.Fatalf("first-shed hint = %d, want the floor", got)
	}
	for i := 0; i < 6; i++ {
		l.noteShed(now)
	}
	// 7 sheds in the window, 6 prior, capacity 2 ⇒ 1 + 6/2.
	if got := l.shedHint(); got != retryAfterFloorSeconds+3 {
		t.Fatalf("pressured hint = %d, want %d", got, retryAfterFloorSeconds+3)
	}
	// A new window forgets old pressure.
	l.noteShed(now + 2*int64(time.Second))
	if got := l.shedHint(); got != retryAfterFloorSeconds {
		t.Fatalf("hint after window reset = %d", got)
	}

	for _, tc := range []struct {
		deficitNs int64
		want      int
	}{
		{1, 1},
		{int64(time.Second), 1},
		{int64(time.Second) + 1, 2},
		{int64(90 * time.Second), 90}, // clamped only at render time
	} {
		if got := retrySecsFromNs(tc.deficitNs); got != tc.want {
			t.Errorf("retrySecsFromNs(%d) = %d, want %d", tc.deficitNs, got, tc.want)
		}
	}
	if got := retryAfterValue(90); got != strconv.Itoa(maxRetryAfterSeconds) {
		t.Errorf("retryAfterValue(90) = %q", got)
	}
	if got := retryAfterValue(0); got != strconv.Itoa(retryAfterFloorSeconds) {
		t.Errorf("retryAfterValue(0) = %q", got)
	}
}

// TestRequestIDCharset is the regression test for the X-Request-Id
// sanitization bugfix: IDs with bytes outside printable ASCII are replaced
// with a generated ID before being echoed or logged, never reflected.
func TestRequestIDCharset(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"client-id-1", true},
		{"trace_0042/retry.7", true},
		{"", false},
		{strings.Repeat("x", maxTraceIDLen), true},
		{strings.Repeat("x", maxTraceIDLen+1), false},
		{"evil\r\nSet-Cookie: x=1", false},
		{"tab\there", false},
		{"nul\x00", false},
		{"del\x7f", false},
		{"caf\xc3\xa9", false}, // non-ASCII
	} {
		if got := traceIDOK(tc.id); got != tc.ok {
			t.Errorf("traceIDOK(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}

	// End to end: a hostile-but-transmittable ID (net/http refuses to send
	// CR/LF itself, so use high bytes) comes back replaced by a generated
	// ID, in the standard generated shape.
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caf\xc3\xa9-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "caf\xc3\xa9-id" {
		t.Fatalf("hostile id reflected: %q", got)
	}
	if len(got) != 25 || got[8] != '-' {
		t.Fatalf("replacement id = %q, want generated shape", got)
	}
}

// TestBatchQueryDedup is the regression test for duplicate ids in
// /v1/query: each unique id is resolved exactly once, and every position
// still gets its answer.
func TestBatchQueryDedup(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/d/ingest", `{"t":[0,100],"demand":[2,3]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}

	before := s.metrics.renders.Load()
	code, _, body := doAs(t, "", "POST", ts.URL+"/v1/query",
		`{"ids":["d","nope","d","d","nope"],"curves":true,"verdict":true}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	// 5 positions, 2 unique ids, one of them unknown: exactly one stream
	// resolved ⇒ 2 renders (curves + verdict), not 6.
	if got := s.metrics.renders.Load() - before; got != 2 {
		t.Fatalf("renders for deduped batch = %d, want 2", got)
	}
	var resp struct {
		Streams []struct {
			ID      string          `json:"id"`
			Error   string          `json:"error"`
			Curves  json.RawMessage `json:"curves"`
			Verdict json.RawMessage `json:"verdict"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response: %v in %s", err, body)
	}
	if len(resp.Streams) != 5 {
		t.Fatalf("batch answered %d positions, want 5", len(resp.Streams))
	}
	for i, want := range []string{"d", "nope", "d", "d", "nope"} {
		if resp.Streams[i].ID != want {
			t.Fatalf("position %d id = %q, want %q", i, resp.Streams[i].ID, want)
		}
	}
	for _, i := range []int{2, 3} { // duplicates share the first answer's bytes
		if string(resp.Streams[i].Curves) != string(resp.Streams[0].Curves) {
			t.Fatalf("duplicate position %d diverged from first occurrence", i)
		}
	}
	for _, i := range []int{1, 4} {
		if resp.Streams[i].Error != "unknown stream" {
			t.Fatalf("unknown position %d: %+v", i, resp.Streams[i])
		}
	}
}

// TestParamCacheTenantChurn is the regression test for the per-tenant
// epoch reset: one tenant sweeping parameters past the cap restarts only
// its own bucket and can never evict another tenant's cached answers.
func TestParamCacheTenantChurn(t *testing.T) {
	var pc paramCache[int]
	keep := &cachedResp{status: 200, body: []byte("A"), version: 7}
	pc.put(7, "a", 1, keep)

	resets := 0
	for k := 0; k < maxCachedQueries+40; k++ {
		if pc.put(7, "b", k, &cachedResp{status: 200, version: 7}) {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("b's sweep never hit the per-tenant cap")
	}
	if got := pc.get(7, "a", 1); got != keep {
		t.Fatalf("a's entry evicted by b's churn: %v", got)
	}
	// And a's own sweep does reset a's bucket (the cap still works).
	for k := 10; k < maxCachedQueries+11; k++ {
		pc.put(7, "a", k, &cachedResp{status: 200, version: 7})
	}
	if pc.get(7, "a", 1) != nil {
		t.Fatal("a's bucket never reset at its own cap")
	}
	// getAny falls back across tenants for the degraded path: a tenant
	// with no bucket of its own can ride any tenant's cached bytes.
	if pc.getAny("c", maxCachedQueries+20) == nil { // lives in b's post-reset epoch
		t.Fatal("getAny found nothing for an unseen tenant")
	}
}

// TestTenantSurfaces covers the introspection wiring: /v1/tenants,
// the /v1/stats tenants block and the wcmd_tenant_* metric families all
// report the same default-tenant traffic.
func TestTenantSurfaces(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, DefaultSLO: "batch", Tenants: []qos.TenantConfig{
		{Name: "acme", SLO: "interactive", RatePerSec: 100, Burst: 10, MaxStreams: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/sf/ingest", `{"t":[100],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("ingest failed")
	}

	_, _, body := rawGet(t, ts.URL+"/v1/tenants")
	var tl tenantsResponse
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.DefaultSLO != "batch" || len(tl.Tenants) != 2 {
		t.Fatalf("/v1/tenants: %s", body)
	}
	def := tenantRecord(t, ts.URL, "default")
	if def.SLO != "batch" || def.Admitted == 0 || def.Streams != 1 {
		t.Fatalf("default record: %+v", def)
	}
	acme := tenantRecord(t, ts.URL, "acme")
	if acme.SLO != "interactive" || acme.RatePerSec != 100 || acme.MaxStreams != 5 {
		t.Fatalf("acme record: %+v", acme)
	}

	_, stats := doJSON2(t, ts.URL+"/v1/stats")
	tenants, ok := stats["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing tenants block: %v", stats)
	}
	defStats, ok := tenants["default"].(map[string]any)
	if !ok || defStats["slo"] != "batch" {
		t.Fatalf("stats default tenant: %v", tenants)
	}

	if got := metricValue(t, ts.URL, `wcmd_tenant_streams{tenant="default",slo="batch"}`); got != "1" {
		t.Fatalf("wcmd_tenant_streams = %q", got)
	}
	if got := metricValue(t, ts.URL, `wcmd_tenant_admitted_total{tenant="acme",slo="interactive"}`); got != "0" {
		t.Fatalf("wcmd_tenant_admitted_total{acme} = %q", got)
	}
	if got := metricValue(t, ts.URL, `wcmd_tenant_request_latency_seconds_count{tenant="default",slo="batch"}`); got == "" || got == "0" {
		t.Fatalf("tenant latency histogram empty: %q", got)
	}
}

// doJSON2 fetches a URL and decodes the JSON object response.
func doJSON2(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	code, _, body := rawGet(t, url)
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return code, m
}

// TestTenantQueryParam covers the alloc-free ?tenant= scan and unknown
// tenants collapsing onto the default.
func TestTenantQueryParam(t *testing.T) {
	for raw, want := range map[string]string{
		"tenant=acme":         "acme",
		"b=2&tenant=x":        "x",
		"tenant=a&tenant=b":   "a",
		"b=2":                 "",
		"":                    "",
		"nottenant=1&b=2":     "",
		"tenant=":             "",
		"xtenant=zz&tenant=y": "y",
	} {
		if got := tenantQueryParam(raw); got != want {
			t.Errorf("tenantQueryParam(%q) = %q, want %q", raw, got, want)
		}
	}

	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{
		{Name: "qp", RatePerSec: 1, Burst: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The query param tags the request like the header does.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/qp/ingest?tenant=qp", `{"t":[100],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("first tagged ingest rejected")
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/qp/ingest?tenant=qp", `{"t":[200],"demand":[1]}`); code != http.StatusTooManyRequests {
		t.Fatal("second tagged ingest not throttled")
	}
	// An unknown tenant name shares the default budget, not qp's.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/qp/ingest?tenant=ghost", `{"t":[300],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("unknown tenant throttled by qp's bucket")
	}
}
