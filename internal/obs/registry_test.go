package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestEscapeLabel(t *testing.T) {
	in := "a\"b\\c\nd"
	want := `a\"b\\c\nd`
	if got := escapeLabel(in); got != want {
		t.Fatalf("escapeLabel(%q) = %q, want %q", in, got, want)
	}
	if got := escapeLabel("plain"); got != "plain" {
		t.Fatalf("plain value changed: %q", got)
	}
}

// one emits a single series.
func one(s Series) func(int, func(Series)) {
	return func(_ int, emit func(Series)) { emit(s) }
}

func render(r *Registry[int]) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func TestPrometheusScalars(t *testing.T) {
	scrapes := 0
	r := NewRegistry(func() int { scrapes++; return 7 },
		Entry[int]{Name: "c_total", Help: "A counter.", Kind: Counter, Read: one(Series{Value: 3})},
		Entry[int]{Name: "g", Help: "A gauge.", Kind: Gauge, Read: func(st int, emit func(Series)) {
			emit(Series{Value: float64(st) + 0.25}) // the scrape state reaches Read
		}},
		Entry[int]{Name: "l_total", Help: "Labelled.", Kind: Counter, Labels: []string{"a", "b"},
			Read: func(_ int, emit func(Series)) {
				emit(Series{Labels: []string{"x", "y"}, Value: 1})
				emit(Series{Labels: []string{"q\"uote", "back\\slash\nline"}, Value: 1e6})
			}},
		Entry[int]{Name: "empty", Help: "No series.", Kind: Gauge, Read: func(int, func(Series)) {}},
	)
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g A gauge.
# TYPE g gauge
g 7.25
# HELP l_total Labelled.
# TYPE l_total counter
l_total{a="x",b="y"} 1
l_total{a="q\"uote",b="back\\slash\nline"} 1000000
# HELP empty No series.
# TYPE empty gauge
`
	if got := render(r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if scrapes != 1 {
		t.Fatalf("scrape ran %d times for one render", scrapes)
	}
}

func TestPrometheusHistograms(t *testing.T) {
	var lat Histogram
	lat.Observe(500 * time.Nanosecond) // below the first emitted bound: folds into it
	lat.Observe(3 * time.Microsecond)
	lat.Observe(time.Minute) // past every finite bound
	var cnt CountHist
	for _, n := range []int64{1, 3, 3, 100000} {
		cnt.Observe(n)
	}
	r := NewRegistry(func() int { return 0 },
		Entry[int]{Name: "lat_seconds", Help: "Latency.", Kind: LatencyHistogram, Labels: []string{"ep"},
			Read: one(Series{Labels: []string{"in"}, Latency: lat.Snapshot()})},
		Entry[int]{Name: "sizes", Help: "Sizes.", Kind: CountHistogram, Read: one(Series{Counts: cnt.Snapshot()})},
	)
	out := render(r)
	lines := strings.Split(out, "\n")
	bucket := func(prefix string) []string {
		var got []string
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				got = append(got, l)
			}
		}
		return got
	}
	lb := bucket("lat_seconds_bucket")
	if len(lb) != len(emittedBuckets)+1 {
		t.Fatalf("%d latency buckets, want %d", len(lb), len(emittedBuckets)+1)
	}
	for _, want := range []string{
		`lat_seconds_bucket{ep="in",le="1.024e-06"} 1`,
		`lat_seconds_bucket{ep="in",le="4.096e-06"} 2`,
		`lat_seconds_bucket{ep="in",le="17.179869184"} 2`,
		`lat_seconds_bucket{ep="in",le="+Inf"} 3`,
		`lat_seconds_sum{ep="in"} 60.0000035`,
		`lat_seconds_count{ep="in"} 3`,
		`sizes_bucket{le="1"} 1`,
		`sizes_bucket{le="2"} 1`,
		`sizes_bucket{le="4"} 3`,
		`sizes_bucket{le="32768"} 3`,
		`sizes_bucket{le="+Inf"} 4`,
		`sizes_sum 100007`,
		`sizes_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if last := lb[len(lb)-1]; !strings.Contains(last, `le="+Inf"`) {
		t.Errorf("latency buckets not +Inf-terminated: %s", last)
	}
	if sb := bucket("sizes_bucket"); len(sb) != CountNumBuckets+1 || !strings.Contains(sb[len(sb)-1], `le="+Inf"`) {
		t.Errorf("count buckets: %v", sb)
	}
}

func TestStatsDocumentNesting(t *testing.T) {
	var lat Histogram
	lat.Observe(time.Millisecond)
	r := NewRegistry(func() int { return 0 },
		Entry[int]{Name: "up", Kind: Gauge, Stats: "uptime_seconds", Read: one(Series{Value: 1.5})},
		Entry[int]{Name: "hidden", Kind: Counter, Read: one(Series{Value: 9})},
		Entry[int]{Name: "clean", Kind: Gauge, Stats: "wal.clean_start", Bool: true, Read: one(Series{Value: 1})},
		Entry[int]{Name: "adm", Kind: Counter, Labels: []string{"tenant", "slo"},
			Stats: "tenants.{tenant}.admitted", Read: func(_ int, emit func(Series)) {
				emit(Series{Labels: []string{"acme", "gold"}, Value: 4})
				emit(Series{Labels: []string{"zeta", "bronze"}, Value: 0}) // no OmitZero: shown
			}},
		Entry[int]{Name: "err", Kind: Counter, Labels: []string{"ep"}, Stats: "endpoints.{ep}.errors",
			OmitZero: true, Read: func(_ int, emit func(Series)) {
				emit(Series{Labels: []string{"ingest"}, Value: 2})
				emit(Series{Labels: []string{"curves"}, Value: 0})
			}},
		Entry[int]{Name: "lat", Kind: LatencyHistogram, Labels: []string{"ep"}, Stats: "endpoints.{ep}",
			OmitZero: true, Read: func(_ int, emit func(Series)) {
				emit(Series{Labels: []string{"ingest"}, Latency: lat.Snapshot()})
				emit(Series{Labels: []string{"curves"}})
			}},
		Entry[int]{Name: "stage", Kind: LatencyHistogram, Labels: []string{"stage"}, Stats: "stages.{stage}",
			OmitZero: true, Read: one(Series{Labels: []string{"decode"}})},
		Entry[int]{Name: "sizes", Kind: CountHistogram, Stats: "sizes", Read: one(Series{})},
	)
	raw, err := json.Marshal(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	q := lat.Snapshot().Quantile
	want := map[string]any{
		"uptime_seconds": 1.5,
		"wal":            map[string]any{"clean_start": true},
		"tenants": map[string]any{
			"acme": map[string]any{"admitted": 4.0, "slo": "gold"},
			"zeta": map[string]any{"admitted": 0.0, "slo": "bronze"},
		},
		"endpoints": map[string]any{"ingest": map[string]any{
			"errors": 2.0, "count": 1.0, "mean_seconds": 0.001,
			"p50_seconds": q(0.5), "p95_seconds": q(0.95), "p99_seconds": q(0.99),
		}},
		"stages": map[string]any{}, // present though every stage was omitted
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats document:\n got  %s\n want %v", raw, want)
	}
}
