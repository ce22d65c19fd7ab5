package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wcm/internal/arrival"
	"wcm/internal/curve"
	"wcm/internal/kernel"
	"wcm/internal/netcalc"
	"wcm/internal/service"
	"wcm/internal/stream"
	"wcm/internal/wirefmt"
)

// TestRenderersMatchEncodingJSON holds the hand renderers of render.go to
// encoding/json through the full HTTP surface. The expected answers come
// from the oracles over the window — kernel.Extract for the curves and span
// tables, the eq. (8) check netcalc.CheckServiceConstraint, and
// netcalc.CompareFrequencies for eq. (9)/(10) — marshaled with
// encoding/json from test-local struct types. A caching server (miss, then
// hit) and a DisableQueryCache server must answer every query with exactly
// those bytes, including the 409 answers of a 1-sample stream.
func TestRenderersMatchEncodingJSON(t *testing.T) {
	scfg := stream.Config{Window: 48, MaxK: 12, ReextractEvery: 17}
	cached := newTestServer(t, Config{Stream: scfg})
	uncached := newTestServer(t, Config{Stream: scfg, DisableQueryCache: true})
	// Two eq. (8) processors: one too slow for any window here, one fast
	// enough that the check passes.
	const latencyNs, buffer, b = 10, 3, 2
	freqs := []float64{1e6, 1e12}

	type curvesJSON struct {
		Version  int64   `json:"version"`
		Total    int64   `json:"total"`
		InWindow int     `json:"in_window"`
		Upper    []int64 `json:"upper"`
		Lower    []int64 `json:"lower"`
		DMin     []int64 `json:"dmin"`
		DMax     []int64 `json:"dmax"`
	}
	type checkJSON struct {
		Version int64 `json:"version"`
		OK      bool  `json:"ok"`
	}
	type minFreqJSON struct {
		Version       int64   `json:"version"`
		GammaHz       float64 `json:"gamma_hz"`
		GammaAtK      int     `json:"gamma_at_k"`
		GammaAtSpanNs int64   `json:"gamma_at_span_ns"`
		WCETHz        float64 `json:"wcet_hz"`
		WCETAtK       int     `json:"wcet_at_k"`
		Saving        float64 `json:"saving"`
		Buffer        int     `json:"buffer"`
	}
	type verdictJSON struct {
		Version     int64 `json:"version"`
		Admitted    bool  `json:"admitted"`
		ContractSet bool  `json:"contract_set"`
		Total       int64 `json:"total"`
		Violations  int64 `json:"violations"`
		Drift       int64 `json:"drift"`
	}
	type answer struct {
		status int
		body   []byte
	}
	ok := func(v any) answer {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return answer{http.StatusOK, append(raw, '\n')}
	}
	conflict := func(err error) answer {
		a := ok(struct {
			Error string `json:"error"`
		}{err.Error()})
		a.status = http.StatusConflict
		return a
	}

	checkBody := func(freqHz float64) string {
		return fmt.Sprintf(`{"freq_hz":%.0f,"latency_ns":%d,"buffer":%d}`, freqHz, latencyNs, buffer)
	}

	rng := rand.New(rand.NewSource(7))
	var now int64
	var ts, ds []int64
	passed := 0
	for batch := 0; batch < 6; batch++ {
		n := 1
		if batch > 0 {
			n = 2 + rng.Intn(32)
		}
		tsv := make([]int64, n)
		dv := make([]int64, n)
		for i := range tsv {
			now += int64(rng.Intn(30))
			tsv[i] = now
			dv[i] = int64(rng.Intn(400))
		}
		ts, ds = append(ts, tsv...), append(ds, dv...)
		body := fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(tsv), jsonInts(dv))
		for _, base := range []string{cached.URL, uncached.URL} {
			if code, raw := postBody(t, base+"/v1/streams/s/ingest", body); code != http.StatusOK {
				t.Fatalf("ingest: %d %s", code, raw)
			}
		}

		// The oracles over the window: the last Window samples. Every
		// ingest batch bumps the stream version once.
		version, total := int64(batch+1), int64(len(ds))
		wt, wd := ts, ds
		if len(wd) > scfg.Window {
			wt, wd = wt[len(wt)-scfg.Window:], wd[len(wd)-scfg.Window:]
		}
		effK := min(scfg.MaxK, len(wd))
		prefix := make([]int64, len(wd)+1)
		for i, d := range wd {
			prefix[i+1] = prefix[i] + d
		}
		up, lo, err := kernel.Extract(prefix, effK, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dmax, dmin, err := kernel.Extract(wt, effK-1, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		type query struct {
			path, body string // a body makes it a POST
			want       answer
		}
		queries := []query{
			{"/v1/streams/s/curves", "", ok(curvesJSON{version, total, len(wd), up, lo, dmin, dmax})},
			{"/v1/streams/s/verdict", "", ok(verdictJSON{Version: version, Admitted: true, Total: total})},
		}
		const minfreqPath = "/v1/streams/s/minfreq?b=2"
		if effK < 2 {
			queries = append(queries, query{minfreqPath, "", conflict(stream.ErrNoSpans)})
			for _, f := range freqs {
				queries = append(queries, query{"/v1/streams/s/check", checkBody(f), conflict(stream.ErrNoSpans)})
			}
		} else {
			spans, err := arrival.FromValues(dmin)
			if err != nil {
				t.Fatal(err)
			}
			gammaU, err := curve.NewFinite(up)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range freqs {
				beta, err := service.RateLatency(f, latencyNs)
				if err != nil {
					t.Fatal(err)
				}
				w := ok(checkJSON{version, false})
				if fits, err := netcalc.CheckServiceConstraint(spans, beta, gammaU, buffer); err != nil {
					w = conflict(err)
				} else if fits {
					w = ok(checkJSON{version, true})
					passed++
				}
				queries = append(queries, query{"/v1/streams/s/check", checkBody(f), w})
			}
			var w answer
			if cmp, err := netcalc.CompareFrequencies(spans, gammaU, b); err != nil {
				w = conflict(err)
			} else {
				w = ok(minFreqJSON{
					Version: version,
					GammaHz: cmp.Gamma.Hz, GammaAtK: cmp.Gamma.AtK, GammaAtSpanNs: cmp.Gamma.AtSpanNs,
					WCETHz: cmp.WCET.Hz, WCETAtK: cmp.WCET.AtK,
					Saving: cmp.Saving, Buffer: b,
				})
			}
			queries = append(queries, query{minfreqPath, "", w})
		}

		for _, q := range queries {
			for _, served := range []struct{ name, base string }{
				{"miss", cached.URL}, {"hit", cached.URL}, {"uncached", uncached.URL},
			} {
				var code int
				var raw []byte
				if q.body != "" {
					code, raw = postBody(t, served.base+q.path, q.body)
				} else {
					code, raw = getRaw(t, served.base+q.path)
				}
				if code != q.want.status || !bytes.Equal(raw, q.want.body) {
					t.Fatalf("batch %d %s %s (%s): served %d %s\nencoding/json says %d %s",
						batch, q.path, q.body, served.name, code, raw, q.want.status, q.want.body)
				}
			}
		}
	}
	if passed == 0 {
		t.Fatal("no eq. (8) check passed; the fast processor no longer exercises \"ok\":true")
	}
}

// queryBinary fires a request with the binary Accept header and returns the
// status, Content-Type and body.
func queryBinary(t *testing.T, method, url, body string) (int, string, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ContentTypeQueryBinary)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), raw
}

// TestBinaryQueriesMatchJSON decodes the columnar binary answers of
// /curves, /check and /minfreq and requires them value-identical to the
// JSON answers at the same stream version.
func TestBinaryQueriesMatchJSON(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 64, MaxK: 16}})
	if code, raw := postBody(t, ts.URL+"/v1/streams/s/ingest",
		`{"t":[0,7,9,21,30,44,45,60],"demand":[5,12,3,40,7,22,9,31]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, raw)
	}

	// curves
	_, jraw := getRaw(t, ts.URL+"/v1/streams/s/curves")
	var jc struct {
		Version  int64   `json:"version"`
		Total    int64   `json:"total"`
		InWindow int     `json:"in_window"`
		Upper    []int64 `json:"upper"`
		Lower    []int64 `json:"lower"`
		DMin     []int64 `json:"dmin"`
		DMax     []int64 `json:"dmax"`
	}
	if err := json.Unmarshal(jraw, &jc); err != nil {
		t.Fatalf("curves JSON: %v", err)
	}
	code, ct, braw := queryBinary(t, "GET", ts.URL+"/v1/streams/s/curves", "")
	if code != http.StatusOK || ct != ContentTypeQueryBinary {
		t.Fatalf("binary curves: status %d content-type %q", code, ct)
	}
	bc, err := wirefmt.DecodeCurves(braw)
	if err != nil {
		t.Fatalf("DecodeCurves: %v", err)
	}
	if bc.Version != jc.Version || bc.Total != jc.Total || int(bc.InWindow) != jc.InWindow {
		t.Fatalf("binary curves header mismatch: %+v vs %+v", bc, jc)
	}
	for _, cols := range [][2][]int64{
		{bc.Upper, jc.Upper}, {bc.Lower, jc.Lower}, {bc.DMin, jc.DMin}, {bc.DMax, jc.DMax},
	} {
		if len(cols[0]) != len(cols[1]) {
			t.Fatalf("column length mismatch: %d vs %d", len(cols[0]), len(cols[1]))
		}
		for i := range cols[0] {
			if cols[0][i] != cols[1][i] {
				t.Fatalf("column value mismatch at %d: %d vs %d", i, cols[0][i], cols[1][i])
			}
		}
	}

	// check
	const checkBody = `{"freq_hz":1000000,"latency_ns":10,"buffer":3}`
	_, jraw = postBody(t, ts.URL+"/v1/streams/s/check", checkBody)
	var jk struct {
		Version int64 `json:"version"`
		OK      bool  `json:"ok"`
	}
	if err := json.Unmarshal(jraw, &jk); err != nil {
		t.Fatalf("check JSON: %v", err)
	}
	code, _, braw = queryBinary(t, "POST", ts.URL+"/v1/streams/s/check", checkBody)
	if code != http.StatusOK {
		t.Fatalf("binary check: status %d", code)
	}
	bk, err := wirefmt.DecodeCheck(braw)
	if err != nil {
		t.Fatalf("DecodeCheck: %v", err)
	}
	if bk.Version != jk.Version || bk.OK != jk.OK {
		t.Fatalf("binary check mismatch: %+v vs %+v", bk, jk)
	}

	// minfreq
	_, jraw = getRaw(t, ts.URL+"/v1/streams/s/minfreq?b=2")
	var jm minFreqResponse
	if err := json.Unmarshal(jraw, &jm); err != nil {
		t.Fatalf("minfreq JSON: %v", err)
	}
	code, _, braw = queryBinary(t, "GET", ts.URL+"/v1/streams/s/minfreq?b=2", "")
	if code != http.StatusOK {
		t.Fatalf("binary minfreq: status %d", code)
	}
	bm, err := wirefmt.DecodeMinFreq(braw)
	if err != nil {
		t.Fatalf("DecodeMinFreq: %v", err)
	}
	if bm.Version != jm.Version || bm.GammaHz != jm.GammaHz ||
		int(bm.GammaAtK) != jm.GammaAtK || bm.GammaAtSpanNs != jm.GammaAtSpanNs ||
		bm.WCETHz != jm.WCETHz || int(bm.WCETAtK) != jm.WCETAtK ||
		bm.Saving != jm.Saving || int(bm.Buffer) != jm.Buffer {
		t.Fatalf("binary minfreq mismatch: %+v vs %+v", bm, jm)
	}

	// Errors stay JSON even with the binary Accept header.
	code, ct, braw = queryBinary(t, "GET", ts.URL+"/v1/streams/nope/curves", "")
	if code != http.StatusNotFound || !strings.Contains(ct, "application/json") {
		t.Fatalf("binary-accept error answer: status %d content-type %q body %s", code, ct, braw)
	}
}

// TestBatchQueryMatchesIndividual requires every sub-object of a /v1/query
// answer to be byte-identical to the corresponding single-stream endpoint's
// body, in request order, with unknown ids answered inline.
func TestBatchQueryMatchesIndividual(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 64, MaxK: 16}})
	ingest := func(id, body string) {
		t.Helper()
		if code, raw := postBody(t, ts.URL+"/v1/streams/"+id+"/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", id, code, raw)
		}
	}
	ingest("a", `{"t":[0,5,9,14],"demand":[3,8,1,12]}`)
	ingest("b", `{"t":[2,4],"demand":[100,7]}`)

	const checkBody = `{"freq_hz":1000000,"latency_ns":10,"buffer":3}`
	code, raw := postBody(t, ts.URL+"/v1/query",
		`{"ids":["a","ghost","b"],"curves":true,"verdict":true,"minfreq_b":2,"check":`+checkBody+`}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, raw)
	}
	var env struct {
		Streams []struct {
			ID      string          `json:"id"`
			Error   string          `json:"error"`
			Curves  json.RawMessage `json:"curves"`
			Check   json.RawMessage `json:"check"`
			MinFreq json.RawMessage `json:"minfreq"`
			Verdict json.RawMessage `json:"verdict"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("batch envelope: %v\n%s", err, raw)
	}
	if got := []string{env.Streams[0].ID, env.Streams[1].ID, env.Streams[2].ID}; got[0] != "a" || got[1] != "ghost" || got[2] != "b" {
		t.Fatalf("request order not preserved: %v", got)
	}
	if env.Streams[1].Error != "unknown stream" || env.Streams[1].Curves != nil {
		t.Fatalf("unknown id not answered inline: %+v", env.Streams[1])
	}

	for _, i := range []int{0, 2} {
		id := env.Streams[i].ID
		_, curves := getRaw(t, ts.URL+"/v1/streams/"+id+"/curves")
		_, verdict := getRaw(t, ts.URL+"/v1/streams/"+id+"/verdict")
		_, minfreq := getRaw(t, ts.URL+"/v1/streams/"+id+"/minfreq?b=2")
		_, check := postBody(t, ts.URL+"/v1/streams/"+id+"/check", checkBody)
		for _, pair := range []struct {
			name string
			sub  json.RawMessage
			full []byte
		}{
			{"curves", env.Streams[i].Curves, curves},
			{"verdict", env.Streams[i].Verdict, verdict},
			{"minfreq", env.Streams[i].MinFreq, minfreq},
			{"check", env.Streams[i].Check, check},
		} {
			want := bytes.TrimSuffix(pair.full, []byte("\n"))
			if !bytes.Equal(pair.sub, want) {
				t.Fatalf("stream %s %s: batch sub-object differs:\nbatch:      %s\nindividual: %s",
					id, pair.name, pair.sub, want)
			}
		}
	}

	// "b" has 2 samples: its check/minfreq answers are the 409 error objects,
	// spliced verbatim — already compared above. Validation errors:
	for _, bad := range []string{
		`{"ids":[]}`,
		`{"ids":["a"]}`,
		`{"curves":true}`,
		`{"ids":["a"],"minfreq_b":-1}`,
		`{"ids":["a"],"check":{"freq_hz":0}}`,
	} {
		if code, _ := postBody(t, ts.URL+"/v1/query", bad); code != http.StatusBadRequest {
			t.Fatalf("batch %s: want 400, got %d", bad, code)
		}
	}
	tooMany := `{"ids":[` + strings.Repeat(`"x",`, maxBatchStreams) + `"x"],"curves":true}`
	if code, _ := postBody(t, ts.URL+"/v1/query", tooMany); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: want 400, got %d", code)
	}
}

// TestMissStormSingleRender is the singleflight contract: N concurrent
// requests for one uncached (key, version) trigger exactly ONE render; the
// other N-1 wait for the leader and replay its bytes.
func TestMissStormSingleRender(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 64, MaxK: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	seedStream(t, h, "s")

	const storm = 32
	renders0 := s.metrics.renders.Load()
	bodies := make([][]byte, storm)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/v1/streams/s/curves", nil)
			rw := httptest.NewRecorder()
			start.Wait()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				t.Errorf("request %d: status %d", i, rw.Code)
			}
			bodies[i] = rw.Body.Bytes()
		}(i)
	}
	start.Done()
	wg.Wait()
	if d := s.metrics.renders.Load() - renders0; d != 1 {
		t.Fatalf("storm of %d concurrent misses rendered %d times, want exactly 1", storm, d)
	}
	for i := 1; i < storm; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("storm responses diverge:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	// A second storm at the same version renders nothing at all.
	for i := 0; i < storm; i++ {
		req := httptest.NewRequest("GET", "/v1/streams/s/curves", nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("post-storm hit: status %d", rw.Code)
		}
	}
	if d := s.metrics.renders.Load() - renders0; d != 1 {
		t.Fatalf("cache hits re-rendered: %d renders total, want 1", d)
	}
}

// TestCheckCacheEpochReset drives more distinct check keys through one
// version than the per-version map cap and requires the epoch-reset counter
// to move — the bounded-map guarantee — while answers stay correct.
func TestCheckCacheEpochReset(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 64, MaxK: 16}})
	if code, raw := postBody(t, ts.URL+"/v1/streams/s/ingest",
		`{"t":[0,7,9,21],"demand":[5,12,3,40]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, raw)
	}
	for i := 0; i < maxCachedQueries+8; i++ {
		body := fmt.Sprintf(`{"freq_hz":%d,"latency_ns":10,"buffer":3}`, 1_000_000+i)
		if code, raw := postBody(t, ts.URL+"/v1/streams/s/check", body); code != http.StatusOK {
			t.Fatalf("check %d: %d %s", i, code, raw)
		}
	}
	_, metrics := getRaw(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "wcmd_query_cache_epoch_resets_total ") {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "wcmd_query_cache_epoch_resets_total ")))
			if err != nil || n < 1 {
				t.Fatalf("epoch reset counter: %q (err %v)", line, err)
			}
			return
		}
	}
	t.Fatal("wcmd_query_cache_epoch_resets_total not exported")
}

// TestParseCheckBodyDifferential: whenever the fast integer-grammar parser
// accepts a body, the encoding/json fallback must accept it too and produce
// the same values — the fast path may reject (and fall back), never disagree.
func TestParseCheckBodyDifferential(t *testing.T) {
	corpus := []string{
		`{"freq_hz":1000000,"latency_ns":10,"buffer":3}`,
		`{"buffer":3,"freq_hz":1000000,"latency_ns":10}`,
		` { "freq_hz" : 1 , "latency_ns" : 0 , "buffer" : 0 } `,
		"\t{\n\"freq_hz\":5,\"latency_ns\":6,\"buffer\":7}\n",
		`{"freq_hz":-4,"latency_ns":-1,"buffer":-9}`,
		`{"freq_hz":9007199254740992,"latency_ns":0,"buffer":0}`,
		`{"freq_hz":9007199254740993,"latency_ns":0,"buffer":0}`,
		`{"freq_hz":1.5,"latency_ns":10,"buffer":3}`,
		`{"freq_hz":1e6,"latency_ns":10,"buffer":3}`,
		`{"freq_hz":01,"latency_ns":10,"buffer":3}`,
		`{"freq_hz":1000000,"latency_ns":10}`,
		`{"freq_hz":1000000,"latency_ns":10,"buffer":3,"extra":1}`,
		`{"freq_hz":1000000,"latency_ns":10,"buffer":3}x`,
		`{"freq_hz":1000000,"freq_hz":2,"latency_ns":10,"buffer":3}`,
		`{"freq_hz":1,"latency_ns":10,"buffer":3}`,
		`{}`,
		`{"freq_hz":}`,
		`[1,2,3]`,
		``,
		`{"freq_hz": 0, "latency_ns": 0, "buffer": 0}`,
		`{"freq_hz":123456789,"latency_ns":987654321,"buffer":42}`,
	}
	for _, body := range corpus {
		var fast checkRequest
		ok := parseCheckBody([]byte(body), &fast)
		if !ok {
			continue // fast path declined; the fallback owns this body
		}
		var slow checkRequest
		if err := decodeJSON(strings.NewReader(body), &slow); err != nil {
			t.Fatalf("fast parser accepted %q but encoding/json rejects it: %v", body, err)
		}
		if fast != slow {
			t.Fatalf("parser disagreement on %q: fast %+v, slow %+v", body, fast, slow)
		}
	}
}

// TestMinfreqBDifferential: the manual RawQuery parse must agree with the
// url.Values reference semantics on every query shape.
func TestMinfreqBDifferential(t *testing.T) {
	ref := func(rawQuery string) (int, bool) {
		v, err := url.ParseQuery(rawQuery)
		if err != nil {
			v = url.Values{}
		}
		s := v.Get("b")
		if s == "" {
			return 1, true
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, false
		}
		return n, true
	}
	corpus := []string{
		"", "b=2", "b=0", "b=1", "b=-1", "b=abc", "b=", "b=2&x=1", "x=1&b=3",
		"b=00", "b=007", "b=2147483647", "b=2147483648", "b=99999999999999999999",
		"b=%32", "b=+2", "b=2&b=3", "a=b", "b=1.5", "b=0x10",
	}
	for _, q := range corpus {
		r := httptest.NewRequest("GET", "/v1/streams/s/minfreq", nil)
		r.URL.RawQuery = q
		gotB, gotOK := minfreqB(r)
		wantB, wantOK := ref(q)
		if gotOK != wantOK || (gotOK && gotB != wantB) {
			t.Fatalf("minfreqB(%q) = (%d, %v), reference (%d, %v)", q, gotB, gotOK, wantB, wantOK)
		}
	}
}

// TestAppendJSONPrimitivesMatchEncodingJSON pins the byte-level contract of
// the hand renderers' building blocks against encoding/json, including the
// exponent-format boundaries of the float encoder and the full escape table
// of the string encoder.
func TestAppendJSONPrimitivesMatchEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3.0, 1e-5, 1e-6, 9.999999e-7, 1e-7,
		1e20, 1e21, 9.99e20, 1.000001e21, 123456.789, -2.5e-8, 3.141592653589793,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e8, 2.5e9,
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%g) = %s, encoding/json says %s", f, got, want)
		}
	}
	strs := []string{
		"", "plain", `quote"back\slash`, "tab\tnewline\ncr\r", "\x00\x01\x1f",
		"<script>&amp;</script>", "  ", "héllo wörld", "日本語",
		string([]byte{0xff, 0xfe}), "emoji \U0001F600", "del\x7f",
		"line sep para",
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json says %s", s, got, want)
		}
	}
}
