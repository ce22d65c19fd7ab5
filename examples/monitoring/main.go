// Runtime monitoring: workload curves as an enforceable contract, served
// over HTTP. The schedulability argument of a deployed system assumes the
// curves; this example boots the wcmd characterization service in-process
// (httptest — runnable offline), installs the curves as an admission
// contract, streams a healthy execution, injects a fault (an activation
// overrunning far past anything the curves admit) and shows the service
// pinpointing the violated window and flipping the stream's verdict — plus
// the eq. (9)/(10) minimum-frequency query against the live window and the
// batch checker (Admits) auditing the recorded trace after the fact.
//
// Run with:
//
//	go run ./examples/monitoring
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"wcm"
)

func post(base, path string, body any) map[string]any {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d %v", path, resp.StatusCode, m)
	}
	return m
}

func get(base, path string) map[string]any {
	resp, err := http.Get(base + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d %v", path, resp.StatusCode, m)
	}
	return m
}

func main() {
	task := wcm.PollingTask{Period: 10, ThetaMin: 30, ThetaMax: 50, Ep: 9, Ec: 2}
	w, err := task.Workload(64)
	if err != nil {
		log.Fatal(err)
	}

	// Boot the characterization service in-process.
	srv, err := wcm.NewWCMDServer(wcm.WCMDServerConfig{
		Stream: wcm.CurveStreamConfig{Window: 256, MaxK: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close() // releases the ingest workers, after hts closes
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// Install the model's curves as the stream's admission contract.
	post(hts.URL, "/v1/streams/poller/contract", map[string]any{
		"upper": w.Upper.Values(), "lower": w.Lower.Values(), "window": 64,
	})

	// A healthy execution: 200 activations straight from the model, one
	// every polling period.
	healthy, err := wcm.GeneratePollingDemands(task.Period, task.ThetaMin, task.ThetaMax,
		task.Ep, task.Ec, 200, 7)
	if err != nil {
		log.Fatal(err)
	}
	ts := make([]int64, len(healthy))
	for i := range ts {
		ts[i] = int64(i) * task.Period * 1000 // period in µs → ns
	}
	res := post(hts.URL, "/v1/streams/poller/ingest",
		map[string]any{"t": ts, "demand": healthy})
	if res["violation"] != nil {
		log.Fatalf("false alarm on healthy run: %v", res["violation"])
	}
	fmt.Printf("healthy run: %v activations ingested, no violations\n", res["total"])

	// While the stream is healthy, ask the service the paper's design
	// question (eq. 9 vs eq. 10): how slow may the processor run?
	mf := get(hts.URL, "/v1/streams/poller/minfreq?b=4")
	fmt.Printf("min frequency for a 4-event FIFO: %.3g Hz by γᵘ, %.3g Hz by WCET (%.0f%% saved)\n",
		mf["gamma_hz"], mf["wcet_hz"], 100*mf["saving"].(float64))

	// Fault injection: a cache-thrash outlier takes 3× the modeled WCET.
	// The service's per-stream monitor flags the tightest violated window
	// in the ingest response itself.
	fault := []int64{3 * task.Ep}
	res = post(hts.URL, "/v1/streams/poller/ingest",
		map[string]any{"t": []int64{ts[len(ts)-1] + task.Period*1000}, "demand": fault})
	v, ok := res["violation"].(map[string]any)
	if !ok {
		log.Fatal("service missed the fault")
	}
	fmt.Printf("fault detected: window of %v demands %v cycles, γᵘ allows %v\n",
		v["len"], v["sum"], v["bound"])

	// The stream's verdict has flipped for good.
	verdict := get(hts.URL, "/v1/streams/poller/verdict")
	fmt.Printf("verdict: admitted=%v after %v violation(s)\n",
		verdict["admitted"], verdict["violations"])

	// Post-mortem audit of the recorded trace with the batch checker.
	faulty := append(append(wcm.DemandTrace{}, healthy...), fault...)
	viol, err := w.Admits(faulty)
	if err != nil {
		log.Fatal(err)
	}
	if viol == nil {
		log.Fatal("audit missed the fault")
	}
	fmt.Printf("audit: tightest violated window starts at activation %d (length %d)\n",
		viol.Start, viol.Len)
	fmt.Println("\nThe guarantees of the RMS test and the FIFO dimensioning are exactly")
	fmt.Println("as strong as these curves — and the service makes them checkable live.")
}
