package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind types a registry entry's readings and decides how both renderers
// show them.
type Kind uint8

const (
	Counter          Kind = iota // monotone total
	Gauge                        // point-in-time reading
	LatencyHistogram             // a Histogram of durations
	CountHistogram               // a CountHist of sizes; Prometheus only
)

var promTypes = [...]string{Counter: "counter", Gauge: "gauge",
	LatencyHistogram: "histogram", CountHistogram: "histogram"}

// Series is one labelled reading of an entry. The entry's Kind names the
// field that carries it.
type Series struct {
	Labels  []string          // label values, in Entry.Labels order
	Value   float64           // Counter, Gauge
	Latency HistSnapshot      // LatencyHistogram
	Counts  CountHistSnapshot // CountHistogram
}

// Entry is one metric family: the single definition that the Prometheus
// exposition and the JSON stats document both render.
type Entry[S any] struct {
	Name   string   // Prometheus family name
	Help   string   // Prometheus HELP text
	Kind   Kind     // counter, gauge or histogram flavour
	Labels []string // label names, in exposition order
	// Stats places the family in the JSON stats document as a dotted path;
	// "" keeps it out. A {label} segment stands for that label's value, and
	// labels the path does not name are written as strings beside the
	// value: tenants.{tenant}.admitted under labels tenant,slo also sets
	// tenants.<tenant>.slo. A LatencyHistogram becomes a count, mean and
	// p50/p95/p99 summary object. The objects above the first {label}
	// segment exist even when every series is omitted.
	Stats string
	// OmitZero keeps a series out of the stats document while it reads
	// zero (a histogram: while it has no observations).
	OmitZero bool
	// Bool shows a 0/1 gauge as false/true in the stats document.
	Bool bool
	// Read emits the family's series, given the render's scrape state.
	Read func(S, func(Series))
}

// Registry is an ordered table of metric families. Every render calls
// scrape once and passes its result to each entry's Read, so a reading
// that costs a walk (a sum over every stream, say) is taken once per
// render, not once per family. The table is built before serving and only
// read afterwards, so renders need no lock.
type Registry[S any] struct {
	scrape  func() S
	entries []Entry[S]
}

// NewRegistry returns a registry over entries, in exposition order.
func NewRegistry[S any](scrape func() S, entries ...Entry[S]) *Registry[S] {
	return &Registry[S]{scrape: scrape, entries: entries}
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, version 0.0.4.
func (r *Registry[S]) WritePrometheus(w io.Writer) {
	st := r.scrape()
	for _, e := range r.entries {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.Name, e.Help, e.Name, promTypes[e.Kind])
		e.Read(st, func(s Series) {
			lbl := labelSet(e.Labels, s.Labels)
			switch e.Kind {
			case LatencyHistogram:
				writeHist(w, e.Name, lbl, emittedBuckets, UpperBoundSeconds,
					s.Latency.CumulativeCount, s.Latency.Count, s.Latency.SumSeconds())
			case CountHistogram:
				writeHist(w, e.Name, lbl, countBuckets, CountUpperBound,
					s.Counts.CumulativeCount, s.Counts.Count, float64(s.Counts.Sum))
			default:
				fmt.Fprintf(w, "%s%s %s\n", e.Name, lbl, formatValue(s.Value))
			}
		})
	}
}

// Stats renders the families that name a Stats path as one JSON-ready
// document of nested maps.
func (r *Registry[S]) Stats() map[string]any {
	st := r.scrape()
	doc := map[string]any{}
	for _, e := range r.entries {
		if e.Stats == "" || e.Kind == CountHistogram {
			continue
		}
		path := strings.Split(e.Stats, ".")
		for pre, i := doc, 0; i < len(path)-1 && path[i][0] != '{'; i++ {
			pre = child(pre, path[i])
		}
		e.Read(st, func(s Series) {
			if e.OmitZero && s.Value == 0 && s.Latency.Count == 0 {
				return
			}
			seg := slices.Clone(path)
			var beside []int // labels the path does not name
			for i, l := range e.Labels {
				if j := slices.Index(seg, "{"+l+"}"); j >= 0 {
					seg[j] = s.Labels[i]
				} else {
					beside = append(beside, i)
				}
			}
			obj := doc
			for _, k := range seg[:len(seg)-1] {
				obj = child(obj, k)
			}
			for _, i := range beside {
				obj[e.Labels[i]] = s.Labels[i]
			}
			key := seg[len(seg)-1]
			switch {
			case e.Kind == LatencyHistogram:
				summarize(child(obj, key), s.Latency)
			case e.Bool:
				obj[key] = s.Value != 0
			default:
				obj[key] = s.Value
			}
		})
	}
	return doc
}

// child returns obj[key] as an object, creating it when absent.
func child(obj map[string]any, key string) map[string]any {
	c, ok := obj[key].(map[string]any)
	if !ok {
		c = map[string]any{}
		obj[key] = c
	}
	return c
}

// ReportedQuantiles are the latency quantiles both renderers report:
// Label is the Prometheus quantile label, Key the stats summary field.
var ReportedQuantiles = []struct {
	Label, Key string
	Q          float64
}{{"0.5", "p50_seconds", 0.50}, {"0.95", "p95_seconds", 0.95}, {"0.99", "p99_seconds", 0.99}}

// summarize writes a latency histogram's stats summary into obj.
func summarize(obj map[string]any, h HistSnapshot) {
	mean := 0.0
	if h.Count > 0 {
		mean = h.SumSeconds() / float64(h.Count)
	}
	obj["count"] = h.Count
	obj["mean_seconds"] = mean
	for _, q := range ReportedQuantiles {
		obj[q.Key] = h.Quantile(q.Q)
	}
}

// ---- Prometheus text exposition ---------------------------------------------

// labelEscaper escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// labelSet renders {name="value",...} with values escaped; "" without
// labels.
func labelSet(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	pairs := make([]string, len(names))
	for i, n := range names {
		pairs[i] = n + `="` + escapeLabel(values[i]) + `"`
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// bucketRange lists histogram bucket indices from..to in steps.
func bucketRange(from, to, step int) (idx []int) {
	for i := from; i <= to; i += step {
		idx = append(idx, i)
	}
	return idx
}

// emittedBuckets is the subset of latency bucket indices exported: factor-4
// steps from 1µs to ~17s. The in-memory histograms keep full 2×
// resolution (quantile estimates use it); the exposition coarsens to keep
// scrape size proportionate. Cumulative counts stay exact at every emitted
// bound because lower unemitted buckets fold into the first emitted one,
// and +Inf always closes the series.
var emittedBuckets = bucketRange(10, 34, 2)

// countBuckets exports every finite CountHist bucket.
var countBuckets = bucketRange(0, CountNumBuckets-1, 1)

// formatLe renders a bucket bound the way Prometheus clients do: shortest
// float64 round-trip representation.
func formatLe(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// formatValue renders a sample value: integers exactly, anything else in
// shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHist emits one histogram series: cumulative buckets at the given
// indices, the +Inf bucket, then _sum and _count.
func writeHist(w io.Writer, name, lbl string, idx []int, bound func(int) float64,
	cum func(int) uint64, count uint64, sum float64) {
	le := "{" // each bucket's label set: the series labels, then le
	if lbl != "" {
		le = strings.TrimSuffix(lbl, "}") + ","
	}
	for _, i := range idx {
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, le, formatLe(bound(i)), cum(i))
	}
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, le, count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lbl, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lbl, count)
}
