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
	"sync/atomic"
	"testing"
	"time"

	"wcm/internal/core"
	"wcm/internal/curve"
	"wcm/internal/kernel"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// asyncTestConfig builds a server config with the ingest pipeline sized
// small enough that coalescing and ring-full paths are reachable.
func asyncTestConfig(sc stream.Config) Config {
	return Config{
		Shards:         4,
		Stream:         sc,
		IngestRing:     16,
		CoalesceBudget: 8,
	}
}

// rawReq performs one request and returns status plus the exact body bytes.
func rawReq(t *testing.T, method, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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
	return resp.StatusCode, raw
}

// TestIngestMatchesStreamOracle drives the ingest pipeline through a
// deterministic request schedule — valid batches, decoder-rejected bodies,
// stream-rejected batches, contract violations, JSON and binary bodies,
// three streams — and holds every response to a reference: a bare
// stream.Stream per id driven by Ingest, its results marshaled with
// encoding/json from test-local struct types (decoder-rejected bodies
// expect the decoder's own error and leave the reference untouched). The
// final /curves of each stream must then be kernel.Extract over its window
// of accepted samples: the enqueue → worker → coalesced-apply → render path
// serves the paper's bounds over exactly the acknowledged samples.
func TestIngestMatchesStreamOracle(t *testing.T) {
	sc := stream.Config{Window: 64, MaxK: 16, ReextractEvery: 13}
	srv, err := New(asyncTestConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, srv)

	type violationJSON struct {
		Start int   `json:"start"`
		Len   int   `json:"len"`
		Sum   int64 `json:"sum"`
		Bound int64 `json:"bound"`
		Upper bool  `json:"upper"`
	}
	type ingestJSON struct {
		Accepted   int            `json:"accepted"`
		Total      int64          `json:"total"`
		Violation  *violationJSON `json:"violation,omitempty"`
		Violations int64          `json:"violations"`
		Drift      int64          `json:"drift"`
	}
	type errorJSON struct {
		Error string `json:"error"`
	}
	type curvesJSON struct {
		Version  int64   `json:"version"`
		Total    int64   `json:"total"`
		InWindow int     `json:"in_window"`
		Upper    []int64 `json:"upper"`
		Lower    []int64 `json:"lower"`
		DMin     []int64 `json:"dmin"`
		DMax     []int64 `json:"dmax"`
	}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(raw, '\n')
	}

	ids := []string{"alpha", "beta", "gamma"}
	oracle := map[string]*stream.Stream{}
	acceptedT, acceptedD := map[string][]int64{}, map[string][]int64{}
	for _, id := range ids {
		st, err := stream.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = st
	}

	// A tight contract on beta so violating batches exercise the violation
	// response shape.
	if code, raw := postBody(t, ts.URL+"/v1/streams/beta/contract",
		`{"upper":[0,5,9],"lower":[0,0,0],"window":8}`); code != http.StatusOK {
		t.Fatalf("contract: %d %s", code, raw)
	}
	up, err := curve.NewFinite([]int64{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := curve.NewFinite([]int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle["beta"].SetContract(core.Workload{Upper: up, Lower: lo}, 8); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	lastT := map[string]int64{}
	violations := 0
	for i := 0; i < 120; i++ {
		id := ids[rng.Intn(len(ids))]
		n := 1 + rng.Intn(6)
		bts := make([]int64, n)
		bds := make([]int64, n)
		for j := range bts {
			lastT[id] += 1 + int64(rng.Intn(5))
			bts[j] = lastT[id]
			bds[j] = int64(rng.Intn(8))
		}
		switch i % 10 {
		case 3: // timestamp regression → 400 from the stream
			bts[n-1] = bts[0] - 1
		case 6: // negative demand → 400 from the stream
			bds[0] = -4
		case 9: // empty demand column → 400 from the decoder
			bds = bds[:0]
		}
		ct, body := "", []byte(fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(bts), jsonInts(bds)))
		var decodeErr error
		if i%4 == 0 {
			ct, body = ContentTypeBinary, AppendBinaryBatch(nil, bts, bds)
			if len(bds) == 0 { // binary format can't express a mismatch; corrupt instead
				body = body[:len(body)-3]
			}
			_, _, decodeErr = decodeBinaryBatch(body, nil, nil)
		} else {
			_, decodeErr = decodeIngest(bytes.NewReader(body))
		}

		wantCode, want := http.StatusOK, []byte(nil)
		if decodeErr != nil {
			wantCode, want = http.StatusBadRequest, marshal(errorJSON{decodeErr.Error()})
		} else if res, err := oracle[id].Ingest(bts, bds); err != nil {
			wantCode, want = http.StatusBadRequest, marshal(errorJSON{err.Error()})
		} else {
			acceptedT[id] = append(acceptedT[id], bts...)
			acceptedD[id] = append(acceptedD[id], bds...)
			out := ingestJSON{Accepted: res.Accepted, Total: res.Total,
				Violations: res.Violations, Drift: res.Drift}
			if v := res.Violation; v != nil {
				out.Violation = &violationJSON{v.Start, v.Len, v.Sum, v.Bound, v.Upper}
				violations++
			}
			want = marshal(out)
		}
		code, got := rawReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", ct, body)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("step %d %s: served %d %s\nreference says %d %s", i, id, code, got, wantCode, want)
		}
	}
	if violations == 0 {
		t.Fatal("no batch violated beta's contract; the schedule no longer exercises the violation shape")
	}

	for _, id := range ids {
		wt, wd := acceptedT[id], acceptedD[id]
		if len(wd) > sc.Window {
			wt, wd = wt[len(wt)-sc.Window:], wd[len(wd)-sc.Window:]
		}
		effK := min(sc.MaxK, len(wd))
		prefix := make([]int64, len(wd)+1)
		for i, d := range wd {
			prefix[i+1] = prefix[i] + d
		}
		upper, lower, err := kernel.Extract(prefix, effK, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dmax, dmin, err := kernel.Extract(wt, effK-1, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := marshal(curvesJSON{oracle[id].Version(), int64(len(acceptedD[id])), len(wd),
			upper, lower, dmin, dmax})
		code, got := getRaw(t, ts.URL+"/v1/streams/"+id+"/curves")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s/curves: served %d %s\nkernel.Extract says %s", id, code, got, want)
		}
	}
}

// TestAsyncConcurrentIngest hammers the pipeline from many goroutines —
// several streams per shard so one worker wakeup sees multiple groups, and
// enough concurrency that batches genuinely coalesce — then checks global
// consistency: every accepted sample is visible in its stream's total, and
// the worker-side metrics agree with the responses the clients saw.
func TestAsyncConcurrentIngest(t *testing.T) {
	sc := stream.Config{Window: 64, MaxK: 8, ReextractEvery: 17}
	srv, err := New(asyncTestConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 8
	const batches = 30
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g) // one stream per goroutine: order stays deterministic
			for i := 0; i < batches; i++ {
				base := int64(i * 4)
				body := fmt.Sprintf(`{"t":[%d,%d,%d],"demand":[1,2,3]}`, base+1, base+2, base+3)
				resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stream %s batch %d: status %d", id, i, resp.StatusCode)
					return
				}
				accepted.Add(3)
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for g := 0; g < goroutines; g++ {
		status, m := doJSON(t, "GET", ts.URL+fmt.Sprintf("/v1/streams/s%d/verdict", g), "")
		if status != http.StatusOK {
			t.Fatalf("verdict s%d: status %d", g, status)
		}
		total += int64(m["total"].(float64))
	}
	if total != accepted.Load() {
		t.Fatalf("streams hold %d samples, clients were acked %d", total, accepted.Load())
	}
	if got := srv.metrics.samples.Load(); int64(got) != accepted.Load() {
		t.Fatalf("samples counter %d, acked %d", got, accepted.Load())
	}
	if srv.metrics.coalesce.Count() == 0 {
		t.Fatal("coalesce histogram saw no drains")
	}
}

// TestShutdownDrainsInflight closes the server while ingests are in flight
// and verifies the drain contract: every batch a client got a 200 for is
// present in stream state afterwards, no handler hangs, and a batch the
// closed pipeline refused (503) was not applied.
func TestShutdownDrainsInflight(t *testing.T) {
	sc := stream.Config{Window: 64, MaxK: 8}
	srv, err := New(asyncTestConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 6
	var acked [goroutines]int64
	var ackedBatches atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("d%d", g)
			for i := 0; ; i++ {
				base := int64(i * 3)
				body := fmt.Sprintf(`{"t":[%d,%d],"demand":[1,1]}`, base+1, base+2)
				resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return // refused by the closed pipeline: a clean refusal, not acked
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stream %s batch %d: status %d", id, i, resp.StatusCode)
					return
				}
				acked[g] += 2
				ackedBatches.Add(1)
				if i >= 40 { // enough iterations that Close lands mid-traffic
					return
				}
			}
		}(g)
	}
	close(start)
	// Let traffic get going, so Close lands mid-traffic, not before it.
	for deadline := time.Now().Add(5 * time.Second); ackedBatches.Load() < goroutines*5 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	srv.Close() // races the in-flight ingests on purpose
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		status, m := doJSON(t, "GET", ts.URL+fmt.Sprintf("/v1/streams/d%d/verdict", g), "")
		var total int64
		switch status {
		case http.StatusOK:
			total = int64(m["total"].(float64))
		case http.StatusNotFound: // every batch of this stream was refused
		default:
			t.Fatalf("verdict d%d: status %d", g, status)
		}
		if total != acked[g] {
			t.Fatalf("stream d%d holds %d samples, client was acked %d", g, total, acked[g])
		}
	}
	srv.Close() // idempotent
}

// TestIngestAfterClose: once Close has released the ingest workers, an
// ingest is refused with 503 and Retry-After before anything is applied or
// logged — in memory and with a WAL — and a refused first batch leaves no
// stream behind.
func TestIngestAfterClose(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := asyncTestConfig(stream.Config{Window: 32, MaxK: 8})
			if durable {
				cfg.WAL = openTestWAL(t, t.TempDir(), cfg, wal.PolicyBatch)
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := newTestServerFrom(t, srv)
			if code, raw := postBody(t, ts.URL+"/v1/streams/s/ingest", `{"t":[1,2],"demand":[3,4]}`); code != http.StatusOK {
				t.Fatalf("ingest before Close: %d %s", code, raw)
			}
			appends := metricValue(t, ts.URL, "wcmd_wal_appends_total")
			samples := metricValue(t, ts.URL, "wcmd_samples_ingested_total")
			srv.Close()

			for _, id := range []string{"s", "fresh"} {
				resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/ingest", "application/json",
					strings.NewReader(`{"t":[5,6],"demand":[7,8]}`))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
					!strings.Contains(string(raw), "server shutting down") {
					t.Fatalf("ingest %s after Close: %d Retry-After=%q %s, want 503 with Retry-After",
						id, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
				}
			}
			if status, m := doJSON(t, "GET", ts.URL+"/v1/streams/s/verdict", ""); status != http.StatusOK || m["total"].(float64) != 2 {
				t.Fatalf("verdict after refused ingest: %d %v, want total 2", status, m)
			}
			if status, _ := doJSON(t, "GET", ts.URL+"/v1/streams/fresh/verdict", ""); status != http.StatusNotFound {
				t.Fatalf("refused first batch left a stream behind: verdict status %d", status)
			}
			if got := metricValue(t, ts.URL, "wcmd_samples_ingested_total"); got != samples {
				t.Fatalf("wcmd_samples_ingested_total %s → %s across refused ingests", samples, got)
			}
			if got := metricValue(t, ts.URL, "wcmd_wal_appends_total"); got != appends {
				t.Fatalf("wcmd_wal_appends_total %s → %s across refused ingests", appends, got)
			}
			if durable && appends != "1" {
				t.Fatalf("wcmd_wal_appends_total = %q before Close, want 1", appends)
			}
		})
	}
}

// TestAsyncMetricsExposition checks the pipeline's scrape-time surface:
// the coalesce histogram and the per-shard queue-depth gauge.
func TestAsyncMetricsExposition(t *testing.T) {
	sc := stream.Config{Window: 32, MaxK: 8}
	srv, err := New(asyncTestConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _ := doJSON(t, "POST", ts.URL+"/v1/streams/m/ingest", `{"t":[1,2,3],"demand":[4,5,6]}`)
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d", status)
	}
	body := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"wcmd_ingest_coalesce_batches_count 1",
		`wcmd_ingest_coalesce_batches_bucket{le="1"} 1`,
		`wcmd_ingest_queue_depth{shard="0"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAsyncConfigValidation: negative pipeline knobs must fail at startup,
// and zero picks the defaults.
func TestAsyncConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{IngestRing: -1}, {CoalesceBudget: -1}} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := s.pipes[0]
	if len(s.pipes) != DefaultShards || p.ring.Cap() != DefaultIngestRing || len(p.jobs) != DefaultCoalesceBudget {
		t.Fatalf("defaults not applied: %d pipes, ring %d, budget %d", len(s.pipes), p.ring.Cap(), len(p.jobs))
	}
}
