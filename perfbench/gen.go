package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"

	"wcm/internal/mpeg2"
	"wcm/internal/wirefmt"
)

// opKind is the endpoint an operation calls.
type opKind uint8

const (
	opIngest opKind = iota
	opCurves
	opCheck
	opMinFreq
	opQuery
	opDelete
)

var kindNames = [...]string{"ingest", "curves", "check", "minfreq", "query", "delete"}

func (k opKind) String() string { return kindNames[k] }

// isRead reports whether the operation is one of the pooled reads.
func (k opKind) isRead() bool { return k >= opCurves && k <= opQuery }

// mutates reports whether the operation changes a stream (and so must be
// applied in generation order on its stream).
func (k opKind) mutates() bool { return k == opIngest || k == opDelete }

// Content types and the tenant header, as wcmd documents them.
const (
	ctIngestBinary = "application/x-wcm-ingest"
	ctQueryBinary  = "application/x-wcm-curves"
	tenantHeader   = "X-Wcm-Tenant"
)

// Macroblock timing of the paper's stream: 45×36 macroblocks per frame at
// 25 frames/s, so sample j of a stream is due at j·40ms/1620.
const (
	framePeriodNs = 40_000_000
	mbPerFrame    = 45 * 36
	clipFrames    = 12 // one GOP of PE2 demands per clip, reused cyclically
	windowSamples = 1024
)

// checkTriple is one /check parameter set.
type checkTriple struct {
	freqHz    float64
	latencyNs int64
	buffer    int
}

// streamState is one stream id the generator has created. The first block
// is fixed at generation time; the second is written by whoever executes
// the operations (the TCP runner or the in-process replay) under its lock.
type streamState struct {
	id     string
	clip   int   // index into mpeg2.Library()
	offset int   // seed offset into the clip's demand sequence
	cursor int64 // next sample index
	ops    int64 // operations generated on this stream
	muts   int64 // mutations generated on this stream
	dead   bool  // a delete has been generated

	done     int64   // operations finished (executed or skipped)
	mutsDone int64   // mutations finished
	total    int64   // acknowledged samples
	winT     []int64 // last ≤ window acknowledged timestamps (may hold more)
	winD     []int64 // matching demands
	deleted  bool    // the delete was acknowledged
	tainted  bool    // a mutation failed: the server's state is unknown
}

// ack records an acknowledged ingest batch.
func (s *streamState) ack(t, d []int64) {
	s.total += int64(len(t))
	s.winT = append(s.winT, t...)
	s.winD = append(s.winD, d...)
	if len(s.winT) > 4*windowSamples {
		s.winT = append(s.winT[:0], s.winT[len(s.winT)-windowSamples:]...)
		s.winD = append(s.winD[:0], s.winD[len(s.winD)-windowSamples:]...)
	}
}

// window returns the acknowledged samples the server's window holds.
func (s *streamState) window() (t, d []int64) {
	n := len(s.winT)
	if n > windowSamples {
		return s.winT[n-windowSamples:], s.winD[n-windowSamples:]
	}
	return s.winT, s.winD
}

// op is one generated operation. Everything but the stream pointers is
// fixed at generation time and is a pure function of (workload, seed).
type op struct {
	kind       opKind
	stream     *streamState   // nil for /v1/query
	ids        []*streamState // /v1/query ids
	gap        float64        // inter-arrival gap, in units of the mean
	ticket     int64          // index among the stream's operations
	mutsBefore int64          // mutations on the stream generated before this one
	binary     bool           // binary ingest body, or Accept binary for reads
	tenant     string         // X-Wcm-Tenant, empty = untagged
	b          int            // /minfreq and /v1/query minfreq_b
	chk        checkTriple    // /check
	t, d       []int64        // ingest samples
	method     string
	path       string
	body       []byte
}

// workload is one traffic mix. rate is the fixed offered rate at which the
// latency metrics are measured.
type workload struct {
	name       string
	why        string
	initial    int     // streams preloaded to a full window before the run
	gammaShape float64 // 0: Poisson arrivals; > 0: Gamma gaps of this shape
	rate       float64
	next       func(g *generator) *op
}

// ladder is the fixed set of offered rates every workload's capacity
// search probes: 200 ops/s growing by 4% per step to 16.1k ops/s. The
// bottom lies far below any rate the server sustains when the machine is
// healthy, so even a run on a starved machine ends on a measured step; the
// top leaves room for the server to get several times faster.
var ladder = func() []float64 {
	out := make([]float64, 113)
	for i := range out {
		out[i] = math.Round(200 * math.Pow(1.04, float64(i)))
	}
	return out
}()

var workloads = []*workload{
	{
		name: "ingest_durable",
		why: "Poisson 900 ops/s: 90% binary ingest on 256 streams (2% of batches 1024 samples), " +
			"10% /minfreq; decode, ring, apply, WAL and fsync dominate. Ladder 200*1.04^i, p99<=100ms",
		initial: 256,
		rate:    900,
		next:    (*generator).nextIngestDurable,
	},
	{
		name: "read_hot",
		why: "Poisson 1000 ops/s: 90% Zipf reads on 64 streams, 8 b values and 8 /check triples, " +
			"half binary, 10% /v1/query; 10% ingest; reads hit the cache. Ladder 200*1.04^i, p99<=100ms",
		initial: 64,
		rate:    1000,
		next:    (*generator).nextReadHot,
	},
	{
		name: "churn_mixed",
		why: "Gamma(0.5) 900 ops/s: 50% JSON/binary ingest, majors up to 1024 then oldest deleted; " +
			"50% tenant reads of fresh streams, 1024 /check triples; reads miss. Ladder 200*1.04^i, p99<=100ms",
		initial:    churnMinor,
		gammaShape: 0.5,
		rate:       900,
		next:       (*generator).nextChurnMixed,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Parameter sets of the workloads.
const (
	churnMinor       = 32   // steady minor stream set
	churnMajorCap    = 1024 // active major streams before the oldest is deleted
	churnMajorPeriod = 4    // ingests between major activations
	churnRecent      = 16   // reads pick among the streams written last
	churnTriples     = 1024 // distinct /check triples, above the 256-entry cache
	churnMaxB        = 64
	queryIDs         = 16
	hotParams        = 8
)

var (
	clipOnce    sync.Once
	clipDemands [][]int64
	clipErr     error
)

// loadClips generates the PE2 macroblock demand sequence of every clip in
// mpeg2.Library() once per process.
func loadClips() ([][]int64, error) {
	clipOnce.Do(func() {
		for _, c := range mpeg2.Library() {
			s, err := mpeg2.Generate(mpeg2.DefaultStream(clipFrames), c)
			if err != nil {
				clipErr = err
				return
			}
			d, err := s.DemandsPE2(mpeg2.DefaultPE2Costs())
			if err != nil {
				clipErr = err
				return
			}
			clipDemands = append(clipDemands, []int64(d))
		}
	})
	return clipDemands, clipErr
}

// generator produces a workload's operation sequence from a seed. It is
// not safe for concurrent use; the runner calls it under its lock.
type generator struct {
	w       *workload
	r       *rand.Rand
	clips   [][]int64
	streams []*streamState // every stream ever created, creation order
	pending []*op          // operations queued by the previous step

	zipf    *rand.Zipf
	hotB    []int
	hotChk  []checkTriple
	minor   []*streamState
	majors  []*streamState // active majors, oldest first
	recent  []*streamState // ring of the streams written last
	ingests int64
	nMajor  int
}

func newGenerator(w *workload, seed uint64) (*generator, error) {
	clips, err := loadClips()
	if err != nil {
		return nil, err
	}
	g := &generator{
		w:     w,
		r:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(len(w.name)))),
		clips: clips,
	}
	for i := 0; i < w.initial; i++ {
		g.newStream(fmt.Sprintf("s%04d", i))
	}
	switch w.name {
	case "read_hot":
		g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(w.initial-1))
		for i := 0; i < hotParams; i++ {
			g.hotB = append(g.hotB, 1+g.r.IntN(32))
			g.hotChk = append(g.hotChk, g.triple(g.r.IntN(churnTriples)))
		}
	case "churn_mixed":
		g.minor = append(g.minor, g.streams...)
	}
	return g, nil
}

func (g *generator) newStream(id string) *streamState {
	c := g.r.IntN(len(g.clips))
	s := &streamState{id: id, clip: c, offset: g.r.IntN(len(g.clips[c]))}
	g.streams = append(g.streams, s)
	return s
}

// triple returns the i-th of the churnTriples distinct /check parameter
// sets. Frequencies span the range where eq. (8) flips for these clips,
// and buffers stay ≥ 1 so no burst makes the check undefined.
func (g *generator) triple(i int) checkTriple {
	return checkTriple{
		freqHz:    2e7 + float64(i/16)*5e5,
		latencyNs: int64(i%4) * 50_000,
		buffer:    1 + i%4*8,
	}
}

// gap draws the next inter-arrival gap with mean 1.
func (g *generator) gap() float64 {
	if g.w.gammaShape <= 0 {
		return g.r.ExpFloat64()
	}
	return gammaVariate(g.r, g.w.gammaShape) / g.w.gammaShape
}

// gammaVariate draws Gamma(k, 1) by Marsaglia–Tsang, boosting k < 1.
func gammaVariate(r *rand.Rand, k float64) float64 {
	if k < 1 {
		return gammaVariate(r, k+1) * math.Pow(r.Float64(), 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// preload returns one full-window binary ingest per initial stream.
func (g *generator) preload() []*op {
	out := make([]*op, 0, g.w.initial)
	for _, s := range g.streams[:g.w.initial] {
		out = append(out, g.ingest(s, windowSamples, true))
	}
	return out
}

// next returns the next operation of the sequence.
func (g *generator) next() *op {
	if len(g.pending) == 0 {
		g.pending = append(g.pending, g.w.next(g))
	}
	o := g.pending[0]
	g.pending = g.pending[1:]
	o.gap = g.gap()
	return o
}

// sequence records the stream's ordering tickets on o.
func (g *generator) sequence(o *op, s *streamState) {
	o.stream = s
	o.ticket = s.ops
	o.mutsBefore = s.muts
	s.ops++
	if o.kind.mutates() {
		s.muts++
	}
}

// ingest builds an ingest of the stream's next n macroblock samples.
func (g *generator) ingest(s *streamState, n int, binaryBody bool) *op {
	o := &op{kind: opIngest, binary: binaryBody, method: "POST",
		path: "/v1/streams/" + s.id + "/ingest"}
	o.t = make([]int64, n)
	o.d = make([]int64, n)
	dem := g.clips[s.clip]
	for i := range o.t {
		j := s.cursor + int64(i)
		o.t[i] = j * framePeriodNs / mbPerFrame
		o.d[i] = dem[(int64(s.offset)+j)%int64(len(dem))]
	}
	s.cursor += int64(n)
	if binaryBody {
		o.body = wirefmt.AppendBatch(nil, o.t, o.d)
	} else {
		o.body = appendJSONBatch(nil, o.t, o.d)
	}
	g.sequence(o, s)
	return o
}

func appendJSONBatch(dst []byte, t, d []int64) []byte {
	dst = append(dst, `{"t":[`...)
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	dst = append(dst, `],"demand":[`...)
	for i, v := range d {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, "]}"...)
}

func (g *generator) curves(s *streamState, binaryAccept bool) *op {
	o := &op{kind: opCurves, binary: binaryAccept, method: "GET", path: "/v1/streams/" + s.id + "/curves"}
	g.sequence(o, s)
	return o
}

func (g *generator) minfreq(s *streamState, b int, binaryAccept bool) *op {
	o := &op{kind: opMinFreq, binary: binaryAccept, b: b, method: "GET",
		path: "/v1/streams/" + s.id + "/minfreq?b=" + strconv.Itoa(b)}
	g.sequence(o, s)
	return o
}

func (g *generator) check(s *streamState, c checkTriple, binaryAccept bool) *op {
	o := &op{kind: opCheck, binary: binaryAccept, chk: c, method: "POST",
		path: "/v1/streams/" + s.id + "/check"}
	o.body = fmt.Appendf(nil, `{"freq_hz":%s,"latency_ns":%d,"buffer":%d}`,
		strconv.FormatFloat(c.freqHz, 'g', -1, 64), c.latencyNs, c.buffer)
	g.sequence(o, s)
	return o
}

// batchLen draws an ingest batch length: 16–64 samples, or with
// probability 2% a long 1024-sample batch.
func (g *generator) batchLen() int {
	if g.r.Float64() < 0.02 {
		return windowSamples
	}
	return 16 + g.r.IntN(49)
}

func (g *generator) nextIngestDurable() *op {
	s := g.streams[g.r.IntN(len(g.streams))]
	if g.r.Float64() < 0.9 {
		return g.ingest(s, g.batchLen(), true)
	}
	return g.minfreq(s, 1+g.r.IntN(hotParams), g.r.IntN(2) == 0)
}

func (g *generator) nextReadHot() *op {
	if g.r.Float64() < 0.1 {
		return g.ingest(g.streams[g.r.IntN(len(g.streams))], 16+g.r.IntN(49), true)
	}
	if g.r.Float64() < 0.1 {
		o := &op{kind: opQuery, b: g.hotB[g.r.IntN(hotParams)], method: "POST", path: "/v1/query"}
		o.body = append(o.body, `{"ids":[`...)
		for i := 0; i < queryIDs; i++ {
			s := g.streams[g.zipf.Uint64()]
			o.ids = append(o.ids, s)
			if i > 0 {
				o.body = append(o.body, ',')
			}
			o.body = strconv.AppendQuote(o.body, s.id)
		}
		o.body = fmt.Appendf(o.body, `],"curves":true,"minfreq_b":%d}`, o.b)
		return o
	}
	s := g.streams[g.zipf.Uint64()]
	bin := g.r.IntN(2) == 0
	switch g.r.IntN(3) {
	case 0:
		return g.curves(s, bin)
	case 1:
		return g.check(s, g.hotChk[g.r.IntN(hotParams)], bin)
	default:
		return g.minfreq(s, g.hotB[g.r.IntN(hotParams)], bin)
	}
}

func (g *generator) nextChurnMixed() *op {
	if g.r.Float64() < 0.5 {
		g.ingests++
		if g.ingests%churnMajorPeriod == 0 {
			// Activate a new major stream; at the cap, delete the oldest
			// first so the active set stays at churnMajorCap.
			if len(g.majors) == churnMajorCap {
				old := g.majors[0]
				g.majors = g.majors[1:]
				old.dead = true
				// Every entry: a stream written twice lately is on the
				// ring twice.
				g.recent = slices.DeleteFunc(g.recent, func(s *streamState) bool { return s == old })
				del := &op{kind: opDelete, method: "DELETE", path: "/v1/streams/" + old.id}
				g.sequence(del, old)
				g.pending = append(g.pending, g.activate())
				return del
			}
			return g.activate()
		}
		var s *streamState
		if len(g.majors) > 0 && g.r.IntN(2) == 0 {
			s = g.majors[g.r.IntN(len(g.majors))]
		} else {
			s = g.minor[g.r.IntN(len(g.minor))]
		}
		return g.written(g.ingest(s, 16+g.r.IntN(49), g.r.IntN(2) == 0))
	}
	var s *streamState
	if len(g.recent) == 0 {
		s = g.minor[g.r.IntN(len(g.minor))]
	} else {
		s = g.recent[g.r.IntN(len(g.recent))]
	}
	bin := g.r.IntN(2) == 0
	var o *op
	if g.r.IntN(2) == 0 {
		o = g.check(s, g.triple(g.r.IntN(churnTriples)), bin)
	} else {
		o = g.minfreq(s, 1+g.r.IntN(churnMaxB), bin)
	}
	o.tenant = [...]string{"alpha", "beta"}[g.r.IntN(2)]
	return o
}

// activate creates the next major stream with a first batch long enough
// for every /check and /minfreq parameter set to be defined on it.
func (g *generator) activate() *op {
	s := g.newStream(fmt.Sprintf("m%05d", g.nMajor))
	g.nMajor++
	g.majors = append(g.majors, s)
	return g.written(g.ingest(s, 2*churnMaxB, g.r.IntN(2) == 0))
}

// written pushes the ingested stream onto the recent-writes ring.
func (g *generator) written(o *op) *op {
	g.recent = append(g.recent, o.stream)
	if len(g.recent) > churnRecent {
		g.recent = g.recent[1:]
	}
	return o
}
