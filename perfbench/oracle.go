package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"

	"wcm/internal/arrival"
	"wcm/internal/curve"
	"wcm/internal/kernel"
	"wcm/internal/netcalc"
)

// oracleSample is how many live streams each output check compares.
const oracleSample = 24

// checkResult counts output comparisons and the mismatches among them.
type checkResult struct {
	attempted, failed int
	errors            []string
}

func (c *checkResult) fail(format string, args ...any) {
	c.failed++
	if len(c.errors) < 5 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// expected is the oracle's answer for one stream: the paper's bounds over
// the acknowledged samples in its window, computed with the batch kernel.
type expected struct {
	total             int64
	inWindow          int
	upper, lower      []int64
	dmin, dmax        []int64
	gammaHz, wcetHz   float64
	gammaAtK, wcetAtK int
	gammaAtSpan       int64
	saving            float64
}

func oracle(s *streamState, b int) (expected, error) {
	t, d := s.window()
	n := len(t)
	e := expected{total: s.total, inWindow: n}
	effK := min(n, 256)
	prefix := make([]int64, n+1)
	for i, v := range d {
		prefix[i+1] = prefix[i] + v
	}
	var err error
	if e.upper, e.lower, err = kernel.Extract(prefix, effK, kernel.Options{Workers: 1}); err != nil {
		return e, err
	}
	up, lo, err := kernel.Extract(t, effK-1, kernel.Options{Workers: 1})
	if err != nil {
		return e, err
	}
	e.dmin, e.dmax = make([]int64, effK), make([]int64, effK)
	for k := 2; k <= effK; k++ {
		e.dmin[k-1], e.dmax[k-1] = lo[k-1], up[k-1]
	}
	gu, err := curve.NewFinite(e.upper)
	if err != nil {
		return e, err
	}
	fc, err := netcalc.CompareFrequencies(arrival.Spans(e.dmin), gu, b)
	if err != nil {
		return e, err
	}
	e.gammaHz, e.gammaAtK, e.gammaAtSpan = fc.Gamma.Hz, fc.Gamma.AtK, fc.Gamma.AtSpanNs
	e.wcetHz, e.wcetAtK, e.saving = fc.WCET.Hz, fc.WCET.AtK, fc.Saving
	return e, nil
}

func getJSON(c *http.Client, url string, dst any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(dst)
}

// checkOutputs compares the server's answers with the oracle: every
// stream's acknowledged sample count against GET /v1/streams (deleted
// streams must be absent), then /curves and /minfreq of a seeded sample of
// live streams against kernel.Extract and netcalc.CompareFrequencies.
// Streams with a failed mutation are left out: their server state is not
// known to the client.
func checkOutputs(addr string, streams []*streamState, seed uint64) checkResult {
	var res checkResult
	c := &http.Client{}
	defer c.CloseIdleConnections()
	base := "http://" + addr

	var list struct {
		Streams []struct {
			ID    string `json:"id"`
			Total int64  `json:"total"`
		} `json:"streams"`
	}
	res.attempted++
	if code, err := getJSON(c, base+"/v1/streams", &list); err != nil || code != http.StatusOK {
		res.fail("GET /v1/streams: %d %v", code, err)
		return res
	}
	got := make(map[string]int64, len(list.Streams))
	for _, s := range list.Streams {
		got[s.ID] = s.Total
	}
	var live []*streamState
	for _, s := range streams {
		if s.tainted {
			continue
		}
		res.attempted++
		total, present := got[s.id]
		switch {
		case s.deleted && present:
			res.fail("%s: deleted but listed", s.id)
		case s.deleted:
		case s.total == 0 && !present:
		case !present || total != s.total:
			res.fail("%s: %d samples listed, %d acknowledged", s.id, total, s.total)
		default:
			live = append(live, s)
		}
	}

	r := rand.New(rand.NewPCG(seed, 0x0c0ffee))
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, s := range live[:min(len(live), oracleSample)] {
		b := 1 + r.IntN(churnMaxB)
		want, err := oracle(s, b)
		if err != nil {
			res.attempted++
			res.fail("%s: oracle: %v", s.id, err)
			continue
		}
		var cv struct {
			Total    int64   `json:"total"`
			InWindow int     `json:"in_window"`
			Upper    []int64 `json:"upper"`
			Lower    []int64 `json:"lower"`
			DMin     []int64 `json:"dmin"`
			DMax     []int64 `json:"dmax"`
		}
		res.attempted++
		code, err := getJSON(c, base+"/v1/streams/"+s.id+"/curves", &cv)
		switch {
		case err != nil || code != http.StatusOK:
			res.fail("%s /curves: %d %v", s.id, code, err)
		case cv.Total != want.total || cv.InWindow != want.inWindow ||
			!slices.Equal(cv.Upper, want.upper) || !slices.Equal(cv.Lower, want.lower) ||
			!slices.Equal(cv.DMin, want.dmin) || !slices.Equal(cv.DMax, want.dmax):
			res.fail("%s /curves differs from kernel.Extract over %d acknowledged samples", s.id, want.inWindow)
		}
		var mf struct {
			GammaHz       float64 `json:"gamma_hz"`
			GammaAtK      int     `json:"gamma_at_k"`
			GammaAtSpanNs int64   `json:"gamma_at_span_ns"`
			WCETHz        float64 `json:"wcet_hz"`
			WCETAtK       int     `json:"wcet_at_k"`
			Saving        float64 `json:"saving"`
			Buffer        int     `json:"buffer"`
		}
		res.attempted++
		code, err = getJSON(c, fmt.Sprintf("%s/v1/streams/%s/minfreq?b=%d", base, s.id, b), &mf)
		switch {
		case err != nil || code != http.StatusOK:
			res.fail("%s /minfreq: %d %v", s.id, code, err)
		case mf.GammaHz != want.gammaHz || mf.GammaAtK != want.gammaAtK ||
			mf.GammaAtSpanNs != want.gammaAtSpan || mf.WCETHz != want.wcetHz ||
			mf.WCETAtK != want.wcetAtK || mf.Saving != want.saving || mf.Buffer != b:
			res.fail("%s /minfreq?b=%d differs from netcalc.CompareFrequencies", s.id, b)
		}
	}
	return res
}
