package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wcm/internal/kernel"
	"wcm/internal/stream"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServerFrom(t, s)
}

func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
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
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", method, url, raw)
		}
	}
	return resp.StatusCode, m
}

func TestNewValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: -3},
		{MaxBodyBytes: -1},
		{Stream: stream.Config{Window: 1}},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.shards) != DefaultShards || s.cfg.MaxBodyBytes != DefaultMaxBodyBytes {
		t.Fatalf("defaults not applied: %d shards, %d bytes", len(s.shards), s.cfg.MaxBodyBytes)
	}
}

// TestEndpointFlow drives the full API surface of one stream: ingest →
// curves → check → minfreq → contract → verdict → list → delete.
func TestEndpointFlow(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 64, MaxK: 16}})

	// Ingest: period 100ns, demands 5/7/6/9 cycles.
	code, m := doJSON(t, "POST", ts.URL+"/v1/streams/cam/ingest",
		`{"t":[0,100,200,300],"demand":[5,7,6,9]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %v", code, m)
	}
	if m["accepted"].(float64) != 4 || m["total"].(float64) != 4 || m["drift"].(float64) != 0 {
		t.Fatalf("ingest response %v", m)
	}

	// Curves: γᵘ(2) = 7+6... actually max over windows of len 2: max(12,13,15)=15.
	code, m = doJSON(t, "GET", ts.URL+"/v1/streams/cam/curves", "")
	if code != http.StatusOK {
		t.Fatalf("curves: %d %v", code, m)
	}
	upper := m["upper"].([]any)
	if len(upper) != 5 || upper[1].(float64) != 9 || upper[2].(float64) != 15 {
		t.Fatalf("upper = %v", upper)
	}
	if m["in_window"].(float64) != 4 {
		t.Fatalf("in_window = %v", m["in_window"])
	}
	dmin := m["dmin"].([]any)
	if len(dmin) != 4 || dmin[1].(float64) != 100 || dmin[3].(float64) != 300 {
		t.Fatalf("dmin = %v", dmin)
	}

	// Check (eq. 8): worst density is ~9 cycles / 100 ns ⇒ 0.15 GHz plenty,
	// 1e-3 Hz hopeless.
	code, m = doJSON(t, "POST", ts.URL+"/v1/streams/cam/check",
		`{"freq_hz":150000000,"latency_ns":0,"buffer":1}`)
	if code != http.StatusOK || m["ok"] != true {
		t.Fatalf("check fast: %d %v", code, m)
	}
	code, m = doJSON(t, "POST", ts.URL+"/v1/streams/cam/check",
		`{"freq_hz":0.001,"buffer":0}`)
	if code != http.StatusOK || m["ok"] != false {
		t.Fatalf("check slow: %d %v", code, m)
	}

	// MinFreq (eq. 9/10): γ-based bound never exceeds WCET-based.
	code, m = doJSON(t, "GET", ts.URL+"/v1/streams/cam/minfreq?b=1", "")
	if code != http.StatusOK {
		t.Fatalf("minfreq: %d %v", code, m)
	}
	if m["gamma_hz"].(float64) <= 0 || m["gamma_hz"].(float64) > m["wcet_hz"].(float64) {
		t.Fatalf("minfreq response %v", m)
	}
	if m["buffer"].(float64) != 1 {
		t.Fatalf("buffer echo %v", m["buffer"])
	}

	// Contract + verdict: generous bounds stay admitted...
	code, m = doJSON(t, "POST", ts.URL+"/v1/streams/cam/contract",
		`{"upper":[0,100,200],"lower":[0,0,0]}`)
	if code != http.StatusOK || m["window"].(float64) != 2 {
		t.Fatalf("contract: %d %v", code, m)
	}
	code, m = doJSON(t, "POST", ts.URL+"/v1/streams/cam/ingest",
		`{"t":[400,500],"demand":[8,8]}`)
	if code != http.StatusOK || m["violation"] != nil {
		t.Fatalf("healthy ingest: %d %v", code, m)
	}
	code, m = doJSON(t, "GET", ts.URL+"/v1/streams/cam/verdict", "")
	if code != http.StatusOK || m["admitted"] != true || m["contract_set"] != true {
		t.Fatalf("verdict healthy: %d %v", code, m)
	}
	// ...and a burst beyond γᵘ(1)=100 flips the verdict.
	code, m = doJSON(t, "POST", ts.URL+"/v1/streams/cam/ingest",
		`{"t":[600],"demand":[1000]}`)
	if code != http.StatusOK || m["violation"] == nil {
		t.Fatalf("violating ingest: %d %v", code, m)
	}
	code, m = doJSON(t, "GET", ts.URL+"/v1/streams/cam/verdict", "")
	if code != http.StatusOK || m["admitted"] != false {
		t.Fatalf("verdict violated: %d %v", code, m)
	}
	fv := m["first_violation"].(map[string]any)
	if fv["upper"] != true || fv["sum"].(float64) != 1000 {
		t.Fatalf("first_violation = %v", fv)
	}

	// List and delete.
	code, m = doJSON(t, "GET", ts.URL+"/v1/streams", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	streams := m["streams"].([]any)
	if len(streams) != 1 || streams[0].(map[string]any)["id"] != "cam" {
		t.Fatalf("list = %v", streams)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/cam", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams/cam/curves", "")
	if code != http.StatusNotFound {
		t.Fatalf("curves after delete: %d", code)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t, Config{
		MaxBodyBytes: 128,
		Stream:       stream.Config{Window: 16, MaxK: 4},
	})

	// 404: unknown stream for every read endpoint; delete of a ghost.
	for _, url := range []string{
		ts.URL + "/v1/streams/ghost/curves",
		ts.URL + "/v1/streams/ghost/minfreq",
		ts.URL + "/v1/streams/ghost/verdict",
	} {
		if code, _ := doJSON(t, "GET", url, ""); code != http.StatusNotFound {
			t.Fatalf("%s: %d", url, code)
		}
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/ghost", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete ghost: %d", resp.StatusCode)
	}

	// 400: malformed JSON, unknown fields, mismatched arrays, bad batches.
	for _, body := range []string{
		`{not json`,
		`{"t":[1],"demand":[1],"extra":true}`,
		`{"t":[1],"demand":[1]} trailing`,
		`{"t":[],"demand":[]}`,
		`{"t":[1,2],"demand":[1]}`,
		`{"t":[5,3],"demand":[1,1]}`,
		`{"t":[1],"demand":[-4]}`,
	} {
		code, m := doJSON(t, "POST", ts.URL+"/v1/streams/s/ingest", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: %d %v", body, code, m)
		}
		if m["error"] == "" {
			t.Fatalf("body %q: no error message", body)
		}
	}
	// A rejected batch must not have created state.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/s/verdict", ""); code != http.StatusNotFound {
		t.Fatalf("stream created by rejected ingest: %d", code)
	}

	// 400: bad check/minfreq/contract parameters.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/s/check", `{"freq_hz":-1}`); code != http.StatusBadRequest {
		t.Fatalf("check bad freq: %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/s/minfreq?b=nope", ""); code != http.StatusBadRequest {
		t.Fatalf("minfreq bad b: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/s/contract", `{"upper":[5,1],"lower":[0]}`); code != http.StatusBadRequest {
		t.Fatalf("contract non-monotone upper: %d", code)
	}

	// 409: analyses on a stream with too little data.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/one/ingest", `{"t":[10],"demand":[3]}`); code != http.StatusOK {
		t.Fatalf("single-sample ingest: %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/one/minfreq", ""); code != http.StatusConflict {
		t.Fatalf("minfreq on 1 sample: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/one/check", `{"freq_hz":1e9}`); code != http.StatusConflict {
		t.Fatalf("check on 1 sample: %d", code)
	}

	// 413: body over the limit.
	big := fmt.Sprintf(`{"t":[%s1],"demand":[1]}`, strings.Repeat("1,", 200))
	code, m := doJSON(t, "POST", ts.URL+"/v1/streams/s/ingest", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v", code, m)
	}
}

// TestConcurrentIngestDifferential hammers many streams from many goroutines
// across shard counts, then pins every stream's served curves against a
// fresh batch extraction through internal/kernel — the service-level version
// of the stream package's differential test. Run with -race.
func TestConcurrentIngestDifferential(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				nStreams = 8
				nBatches = 20
				batchLen = 7
				window   = 32
				maxK     = 8
			)
			ts := newTestServer(t, Config{
				Shards: shards,
				Stream: stream.Config{Window: window, MaxK: maxK, ReextractEvery: 13},
			})

			// Per-stream reference traces, generated up front.
			traces := make([][2][]int64, nStreams)
			for i := range traces {
				rng := rand.New(rand.NewSource(int64(1000*shards + i)))
				n := nBatches * batchLen
				tsv := make([]int64, n)
				dv := make([]int64, n)
				var now int64
				for j := 0; j < n; j++ {
					now += int64(rng.Intn(40))
					tsv[j] = now
					dv[j] = int64(rng.Intn(500))
				}
				traces[i] = [2][]int64{tsv, dv}
			}

			var wg sync.WaitGroup
			errc := make(chan error, nStreams)
			for i := 0; i < nStreams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tsv, dv := traces[i][0], traces[i][1]
					for b := 0; b < nBatches; b++ {
						lo, hi := b*batchLen, (b+1)*batchLen
						body, _ := json.Marshal(map[string][]int64{
							"t": tsv[lo:hi], "demand": dv[lo:hi],
						})
						resp, err := http.Post(
							fmt.Sprintf("%s/v1/streams/s%d/ingest", ts.URL, i),
							"application/json", bytes.NewReader(body))
						if err != nil {
							errc <- err
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							errc <- fmt.Errorf("stream %d batch %d: status %d", i, b, resp.StatusCode)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// Differential: served curves must equal a batch re-extraction of
			// each stream's window.
			for i := 0; i < nStreams; i++ {
				code, m := doJSON(t, "GET", fmt.Sprintf("%s/v1/streams/s%d/curves", ts.URL, i), "")
				if code != http.StatusOK {
					t.Fatalf("stream %d curves: %d", i, code)
				}
				tsv, dv := traces[i][0], traces[i][1]
				tail := dv[len(dv)-window:]
				prefix := make([]int64, window+1)
				for j, v := range tail {
					prefix[j+1] = prefix[j] + v
				}
				wantUp, wantLo, err := kernel.Extract(prefix, maxK, kernel.Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantDmax, wantDmin, err := kernel.Extract(tsv[len(tsv)-window:], maxK-1, kernel.Options{})
				if err != nil {
					t.Fatal(err)
				}
				gotUp := m["upper"].([]any)
				gotLo := m["lower"].([]any)
				for k := 0; k <= maxK; k++ {
					if int64(gotUp[k].(float64)) != wantUp[k] || int64(gotLo[k].(float64)) != wantLo[k] {
						t.Fatalf("stream %d k=%d: served (%v,%v), want (%d,%d)",
							i, k, gotUp[k], gotLo[k], wantUp[k], wantLo[k])
					}
				}
				gotDmin := m["dmin"].([]any)
				gotDmax := m["dmax"].([]any)
				for k := 1; k < maxK; k++ {
					if int64(gotDmin[k].(float64)) != wantDmin[k] || int64(gotDmax[k].(float64)) != wantDmax[k] {
						t.Fatalf("stream %d span k=%d: served (%v,%v), want (%d,%d)",
							i, k+1, gotDmin[k], gotDmax[k], wantDmin[k], wantDmax[k])
					}
				}
			}

			// Metrics must reflect the ingested volume and zero drift.
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			text := string(raw)
			wantSamples := fmt.Sprintf("wcmd_samples_ingested_total %d", nStreams*nBatches*batchLen)
			for _, want := range []string{
				wantSamples,
				fmt.Sprintf("wcmd_streams %d", nStreams),
				"wcmd_reextraction_drift_total 0",
				`wcmd_requests_total{endpoint="ingest"}`,
			} {
				if !strings.Contains(text, want) {
					t.Fatalf("metrics missing %q:\n%s", want, text)
				}
			}
		})
	}
}

func TestMetricsEndpointCounters(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 8, MaxK: 2}})
	doJSON(t, "POST", ts.URL+"/v1/streams/a/ingest", `{"t":[1,2],"demand":[3,4]}`)
	doJSON(t, "POST", ts.URL+"/v1/streams/a/ingest", `{bad`)
	doJSON(t, "GET", ts.URL+"/v1/streams/nope/curves", "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"wcmd_samples_ingested_total 2",
		"wcmd_ingest_batches_total 1",
		`wcmd_requests_total{endpoint="ingest"} 2`,
		`wcmd_request_errors_total{endpoint="ingest"} 1`,
		`wcmd_request_errors_total{endpoint="curves"} 1`,
		"wcmd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
