// Package obs is the zero-dependency observability layer of the wcmd
// service: lock-free log-bucketed latency histograms (Histogram),
// structured logging on log/slog with per-request trace IDs carried
// through context (Request, NewContext, LoggerFrom), and
// self-characterization (SelfStream) — the server feeds its own
// per-request handler cost into an internal/stream CurveStream, so the
// paper's workload model (γᵘ/γˡ, eq. 9 minimum frequency) is served for
// the service's own request workload at /debug/self. A Registry holds the
// service's metric families, each defined once and rendered both as
// Prometheus text and as a JSON stats document.
//
// Everything on the request path is allocation-free in steady state:
// histograms are fixed atomic arrays, Request scopes are designed to be
// pooled by the caller, and SelfStream.Observe reuses the stream's
// pre-sized rings.
package obs
