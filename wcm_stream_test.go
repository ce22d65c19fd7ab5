package wcm

// Facade tests for the streaming APIs: CurveStream, CompareFrequencies and
// the WCMDServer HTTP surface (over httptest, no network).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFacadeCurveStream(t *testing.T) {
	s, err := NewCurveStream(CurveStreamConfig{Window: 32, MaxK: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := []int64{0, 100, 200, 300, 400, 500}
	d := []int64{5, 7, 6, 9, 5, 8}
	res, err := s.Ingest(ts, d)
	if err != nil || res.Accepted != 6 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}

	// The stream's answers must match the batch facade paths exactly.
	w, err := FromDemandTrace(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 6; k++ {
		if snap.Workload.Upper.MustAt(k) != w.Upper.MustAt(k) ||
			snap.Workload.Lower.MustAt(k) != w.Lower.MustAt(k) {
			t.Fatalf("k=%d: stream curves diverge from FromDemandTrace", k)
		}
	}

	spans, err := SpansFromTrace(ts, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CompareFrequencies(spans, w.Upper, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MinFrequency(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gamma.Hz != want.Gamma.Hz || got.WCET.Hz != want.WCET.Hz || got.Saving != want.Saving {
		t.Fatalf("stream minfreq %+v, batch %+v", got, want)
	}
	if want.Gamma.Hz > want.WCET.Hz {
		t.Fatalf("Fᵞmin %v exceeds Fʷmin %v", want.Gamma.Hz, want.WCET.Hz)
	}
}

func TestFacadeWCMDServer(t *testing.T) {
	srv, err := NewWCMDServer(WCMDServerConfig{Stream: CurveStreamConfig{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	resp, err := http.Post(hts.URL+"/v1/streams/demo/ingest", "application/json",
		strings.NewReader(`{"t":[0,100,200,300],"demand":[5,7,6,9]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	resp, err = http.Get(hts.URL + "/v1/streams/demo/minfreq?b=1")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		GammaHz float64 `json:"gamma_hz"`
		WCETHz  float64 `json:"wcet_hz"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mf.GammaHz <= 0 || mf.GammaHz > mf.WCETHz {
		t.Fatalf("minfreq over HTTP: %+v", mf)
	}
}

func TestFacadeBinaryIngest(t *testing.T) {
	srv, err := NewWCMDServer(WCMDServerConfig{Stream: CurveStreamConfig{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	body := AppendBinaryIngestBatch(nil, []int64{0, 100, 200, 300}, []int64{5, 7, 6, 9})
	resp, err := http.Post(hts.URL+"/v1/streams/demo/ingest", BinaryIngestContentType,
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Accepted != 4 {
		t.Fatalf("binary ingest: status %d, %+v", resp.StatusCode, ing)
	}
}
