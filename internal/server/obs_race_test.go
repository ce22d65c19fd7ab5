package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"testing"

	"wcm/internal/stream"
)

// TestObservabilityUnderConcurrency runs binary ingest writers, /metrics
// scrapers and /debug/self readers against one server at once — the
// lock-free histogram cells, the immutable endpoint map and the
// self-characterization stream all get hit from every side under -race.
// After the hammer quiesces, one final scrape must show every endpoint's
// histogram total exactly equal to its request counter, and the self
// stream must have absorbed every single request (timestamp clamping means
// racing completions are never dropped).
func TestObservabilityUnderConcurrency(t *testing.T) {
	const nWriters = 4
	s, err := New(Config{
		Stream:     stream.Config{Window: 64, MaxK: 8, ReextractEvery: 31},
		SelfCurves: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	serve := func(method, path, contentType string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := &memRecorder{header: make(http.Header)}
		h.ServeHTTP(rec, req)
		return rec.status, rec.body.Bytes()
	}

	const nBatches = 50
	var done atomic.Bool
	var writers, readers sync.WaitGroup
	errc := make(chan error, nWriters+4)

	// Writers: each owns a stream so timestamps stay monotone per stream.
	for wr := 0; wr < nWriters; wr++ {
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			var now int64
			for b := 0; b < nBatches; b++ {
				ts := make([]int64, 8)
				dv := make([]int64, 8)
				for i := range ts {
					now += int64(1 + (b+i)%17)
					ts[i] = now
					dv[i] = int64((wr*31 + b*7 + i) % 200)
				}
				body := AppendBinaryBatch(nil, ts, dv)
				code, raw := serve("POST",
					fmt.Sprintf("/v1/streams/w%d/ingest", wr), ContentTypeBinary, body)
				if code != http.StatusOK {
					errc <- fmt.Errorf("writer %d batch %d: %d %s", wr, b, code, raw)
					return
				}
			}
		}(wr)
	}

	// Scrapers: the exposition must stay parseable while cells are updated.
	for sc := 0; sc < 2; sc++ {
		readers.Add(1)
		go func(sc int) {
			defer readers.Done()
			for !done.Load() {
				code, raw := serve("GET", "/metrics", "", nil)
				if code != http.StatusOK {
					errc <- fmt.Errorf("scraper %d: %d", sc, code)
					return
				}
				if !bytes.Contains(raw, []byte("wcmd_request_latency_seconds_bucket")) {
					errc <- fmt.Errorf("scraper %d: histogram family missing", sc)
					return
				}
			}
		}(sc)
	}

	// Self readers: curves of the service's own workload, mid-flight.
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func(rd int) {
			defer readers.Done()
			for !done.Load() {
				code, raw := serve("GET", "/debug/self", "", nil)
				if code == http.StatusConflict {
					continue // nothing observed yet
				}
				if code != http.StatusOK {
					errc <- fmt.Errorf("self reader %d: %d %s", rd, code, raw)
					return
				}
				var sr selfResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					errc <- fmt.Errorf("self reader %d: bad body %s", rd, raw)
					return
				}
				for k := 1; k < len(sr.UpperUs); k++ {
					if sr.UpperUs[k] < sr.UpperUs[k-1] {
						errc <- fmt.Errorf("self reader %d: γᵘ not monotone: %v", rd, sr.UpperUs)
						return
					}
				}
			}
		}(rd)
	}

	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiescent check: histogram totals equal request counters, for every
	// endpoint, in the same scrape.
	code, raw := serve("GET", "/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("final scrape: %d", code)
	}
	requests := make(map[string]uint64)
	histCounts := make(map[string]uint64)
	for _, line := range strings.Split(string(raw), "\n") {
		var ep string
		var v uint64
		if n, _ := fmt.Sscanf(line, "wcmd_requests_total{endpoint=%q} %d", &ep, &v); n == 2 {
			requests[ep] = v
		}
		if n, _ := fmt.Sscanf(line, "wcmd_request_latency_seconds_count{endpoint=%q} %d", &ep, &v); n == 2 {
			histCounts[ep] = v
		}
	}
	if requests["ingest"] != nWriters*nBatches {
		t.Fatalf("ingest requests = %d, want %d", requests["ingest"], nWriters*nBatches)
	}
	if len(requests) == 0 || len(requests) != len(histCounts) {
		t.Fatalf("parsed %d request counters, %d histogram counts", len(requests), len(histCounts))
	}
	var totalRequests uint64
	for ep, n := range requests {
		if histCounts[ep] != n {
			t.Fatalf("endpoint %s: requests %d != histogram count %d", ep, n, histCounts[ep])
		}
		totalRequests += n
	}

	// The self stream saw exactly one observation per handled request
	// (the final scrape above is still in flight, so it is excluded).
	code, raw = serve("GET", "/debug/self", "", nil)
	if code != http.StatusOK {
		t.Fatalf("final self: %d %s", code, raw)
	}
	var sr selfResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	// totalRequests counts everything observed before the final scrape;
	// the final scrape itself was observed after its counters were
	// rendered, so by the time /debug/self ran the stream had absorbed
	// totalRequests + 1 requests.
	if sr.Observed != totalRequests+1 {
		t.Fatalf("self observed %d requests, counters say %d+1", sr.Observed, totalRequests)
	}
}
