// Command perfbench is wcm's end-to-end benchmark: one seeded, open-loop
// load generator drives a real wcmd over TCP keep-alive connections with
// one of three traffic mixes, checks every answer it samples against the
// kernel.Extract / netcalc oracle, kills and restarts wcmd to check crash
// recovery, and prints one JSON result line. With -trace 1 it replays the
// same operations in-process around each layer's public functions and
// reports per-layer metrics instead. See README.md; run it through run.sh,
// which builds wcmd and this program from the checkout first.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed measurement settings, the same for every workload.
const (
	setupRuns    = 7                      // set-ups per run; setup_s is their median
	recoverRuns  = 3                      // SIGKILL + restart cycles; recovery_s is their median
	warmup       = time.Second            // offered at the fixed rate before measuring
	fixedShare   = 0.6                    // of --seconds at the fixed rate; the rest probes the ladder
	fixedWindow  = 100 * time.Millisecond // the fixed-rate phase's windows (see fixedPhase)
	fixedUsed    = 30                     // windows the fixed-phase metrics pool, at most half
	probePause   = 150 * time.Millisecond // idle between ladder probes
	p99LimitMs   = 100.0                  // capacity: ingest and read p99 at most this
	failLimit    = 0.001                  // capacity: fail_frac at most this
	backlogLimit = 0.02                   // capacity: ops left unsent at probe end, share of due
)

// metricSpec is one reported metric. The two lists are what BENCHMARK.json
// declares: every -trace 0 run reports exactly endToEndMetrics, every
// -trace 1 run exactly perLayerMetrics.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"disk_bytes_per_sample", "B"},
}

// ungated lists the end-to-end metrics a -trace 0 run prints in its report
// but leaves out of the result line and BENCHMARK.json: on a shared
// 2-vCPU VM their run-to-run spread is wider than the largest bound the
// benchmark may declare (see README.md, Stability).
var ungated = []metricSpec{
	{"setup_wall_s", "s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"capacity_ops_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"recovery_s", "s"},
	{"fail_frac", "ratio"},
}

var perLayerMetrics = []metricSpec{
	{"net.residual_p50_us", "us"},
	{"server.ingest_us", "us"},
	{"server.read_us", "us"},
	{"server.allocs_per_op", "count"},
	{"server.shed_frac", "ratio"},
	{"server.degraded_frac", "ratio"},
	{"qos.take_ns", "ns"},
	{"qos.throttled_frac", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.renders_per_read", "ratio"},
	{"cache.epoch_resets", "count"},
	{"wirefmt.decode_ns_per_sample", "ns"},
	{"wirefmt.encode_ns_per_read", "ns"},
	{"pipeline.coalesce_mean", "count"},
	{"pipeline.update_p99_us", "us"},
	{"ringbuf.push_pop_ns", "ns"},
	{"stream.apply_ns_per_sample", "ns"},
	{"stream.snapshot_us", "us"},
	{"stream.reextractions_per_ksample", "count"},
	{"kernel.extract_ms", "ms"},
	{"netcalc.minfreq_us", "us"},
	{"netcalc.check_us", "us"},
	{"wal.append_us_per_batch", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_batch", "ratio"},
	{"wal.bytes_per_sample", "B"},
	{"wal.replay_ms_per_mb", "ms/MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.ingest_gamma_k1_us", "us"},
	{"loadgen.ingest_gamma_k10_us", "us"},
	{"loadgen.ingest_gamma_k100_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"reconcile.gap_frac", "ratio"},
}

// checkMetrics reports whether got holds exactly the specs, units included.
func checkMetrics(got map[string]metricValue, specs []metricSpec) error {
	if len(got) != len(specs) {
		return fmt.Errorf("%d metrics reported, %d declared", len(got), len(specs))
	}
	for _, sp := range specs {
		v, ok := got[sp.name]
		if !ok || v.Unit != sp.unit {
			return fmt.Errorf("metric %s: reported %+v, declared unit %s", sp.name, v, sp.unit)
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects metrics and prints each with its unit and sample count.
type report struct {
	metrics map[string]metricValue
	lines   []string
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	r.metrics[name] = metricValue{v, unit}
	r.print("metric", name, unit, v, n, note)
}

// addUngated prints one of the ungated metrics without putting it in the
// result line.
func (r *report) addUngated(name, unit string, v float64, n int, note string) {
	r.print("ungated", name, unit, v, n, note)
}

func (r *report) print(tag, name, unit string, v float64, n int, note string) {
	line := fmt.Sprintf("%-7s %-34s %16.6f %-6s n=%d", tag, name, v, unit, n)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// procs tracks the wcmd processes alive, so a signal kills them.
var (
	procMu sync.Mutex
	procs  = map[*wcmdProc]bool{}
)

func track(p *wcmdProc) {
	procMu.Lock()
	procs[p] = true
	procMu.Unlock()
}

func untrack(p *wcmdProc) {
	procMu.Lock()
	delete(procs, p)
	procMu.Unlock()
	p.kill()
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "traffic mix: ingest_durable, read_hot or churn_mixed")
	seed := fs.Uint64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 30, "measured seconds per run")
	traceMode := fs.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
	bin := fs.String("wcmd", "", "wcmd binary")
	work := fs.String("work", "", "scratch directory for data directories and logs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *work == "" || *secs < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -wcmd, -work, -seconds ≥ 1, -trace 0|1:", err)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Flush what earlier builds and runs left dirty in the page cache, so
	// their writeback does not land in this run's fsyncs; flush again on
	// the way out for the next run.
	syscall.Sync()
	defer syscall.Sync()
	defer os.RemoveAll(dir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		procMu.Lock()
		for p := range procs {
			p.kill()
		}
		procMu.Unlock()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	b := &bench{w: w, seed: *seed, seconds: *secs, bin: *bin, work: *work, dir: dir, cpu0: readCPUTimes()}
	defer b.stop()
	var res result
	if *traceMode == 1 {
		res, err = b.traced()
		if err == nil {
			err = checkMetrics(res.Metrics, perLayerMetrics)
		}
	} else {
		res, err = b.endToEnd()
		if err == nil {
			err = checkMetrics(res.Metrics, endToEndMetrics)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench is one run: a workload, a seed and the wcmd it drives.
type bench struct {
	w       *workload
	seed    uint64
	seconds int
	bin     string
	work    string // the -work directory
	dir     string // this run's directory under work

	proc    *wcmdProc
	addr    string
	dataDir string
	gen     *generator
	run     *runner
	rep     report

	attempted, failed int
	errs              []string
	cpu0              cpuTimes // machine CPU times at the start of the run
}

func (b *bench) stop() {
	if b.run != nil {
		b.run.close()
	}
	if b.proc != nil {
		untrack(b.proc)
		b.proc = nil
	}
}

func (b *bench) start() error {
	p, err := startWcmd(b.bin, b.addr, b.dataDir, filepath.Join(b.dir, "wcmd.log"))
	if err != nil {
		return err
	}
	b.proc = p
	track(p)
	return nil
}

// setup starts a fresh wcmd on an empty data directory and preloads the
// workload's initial streams to a full window. It returns the time from
// exec to the end of the preload.
func (b *bench) setup(i int) (time.Duration, error) {
	b.stop()
	var err error
	if b.addr, err = freeAddr(); err != nil {
		return 0, err
	}
	b.dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", i))
	if err := os.RemoveAll(b.dataDir); err != nil {
		return 0, err
	}
	if b.gen, err = newGenerator(b.w, b.seed); err != nil {
		return 0, err
	}
	pre := b.gen.preload()
	t0 := time.Now()
	if err := b.start(); err != nil {
		return 0, err
	}
	b.run = newRunner(b.addr, b.gen, runtime.NumCPU())
	if err := b.run.closedLoop(pre); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// count folds a phase's attempts and failures into the run's totals.
func (b *bench) count(p phaseResult) {
	b.attempted += len(p.samples)
	b.failed += p.failed()
	b.errs = append(b.errs, p.errors...)
}

func (b *bench) countCheck(c checkResult) {
	b.attempted += c.attempted
	b.failed += c.failed
	b.errs = append(b.errs, c.errors...)
}

// recoverOnce SIGKILLs wcmd and restarts it on the same data directory,
// returning the time from exec to /healthz 200.
func (b *bench) recoverOnce() (time.Duration, error) {
	b.run.close()
	untrack(b.proc)
	b.proc = nil
	t0 := time.Now()
	if err := b.start(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probe is one capacity-ladder step's verdict.
type probe struct {
	rate                  float64
	steal                 float64 // machine steal share during the probe
	pass                  bool
	ingP99, readP99       float64
	failFrac, backlogFrac float64
}

func (b *bench) probe(rate float64, dur time.Duration) probe {
	st0 := readCPUTimes()
	p := b.run.run(rate, dur)
	pr := probe{rate: rate, steal: stealFrac(st0, readCPUTimes())}
	b.count(p)
	time.Sleep(probePause)
	n := len(p.samples)
	if n > 0 {
		pr.failFrac = float64(p.failed()) / float64(n)
	}
	pr.backlogFrac = float64(len(p.skipped)) / float64(max(1, p.due()))
	// Skipped operations count at their latency's lower bound, which is
	// above the limit.
	p99 := func(pick func(opKind) bool) float64 { return ms(quantile(dueLatencies(&p, pick, false), 0.99)) }
	pr.ingP99, pr.readP99 = p99(isIngest), p99(isRead)
	pr.pass = n > 0 && pr.failFrac <= failLimit && pr.backlogFrac <= backlogLimit &&
		pr.ingP99 <= p99LimitMs && pr.readP99 <= p99LimitMs
	return pr
}

// capacity finds the highest rate on the fixed ladder whose
// probe passes. A first phase offers the ladder's top rate in four
// windows: the server saturates, and the completions per second of the two
// windows with the least steal estimate its closed-loop throughput X.
// Open-loop arrivals leave the connections idle at times, so the knee lies
// below X; the search starts at the highest step ≤ 0.85·X and gallops up
// (while passing) or down (while failing) by 2, 4, 8… steps until it
// brackets the knee, then bisects the bracket. A failed step is probed once
// more before it counts as failed, so one transient stall (a journal
// commit, a neighbour's burst) does not move the result. Starting from a
// throughput averaged over seconds keeps one bad probe from sending the
// search far from the knee, as bisection over the whole ladder would.
func (b *bench) capacity(budget time.Duration) (float64, int) {
	const (
		capStart  = 0.85
		maxProbes = 8 // the saturation probe included
	)
	stride := 2
	lad := ladder
	satDur := budget * 4 / 15
	// X is the median throughput of the least-steal half of four
	// saturation windows.
	type satWindow struct{ steal, rate float64 }
	var sats []satWindow
	for k := 0; k < 4; k++ {
		st0 := readCPUTimes()
		p := b.run.run(lad[len(lad)-1], satDur/4)
		sats = append(sats, satWindow{stealFrac(st0, readCPUTimes()), float64(len(p.samples)-p.failed()) / (satDur / 4).Seconds()})
		b.count(p)
	}
	time.Sleep(probePause)
	slices.SortStableFunc(sats, func(a, b satWindow) int { return cmp.Compare(a.steal, b.steal) })
	x := median([]float64{sats[0].rate, sats[1].rate})
	i := 0
	for i+1 < len(lad) && lad[i+1] <= capStart*x {
		i++
	}
	b.rep.note("saturation probe at %.0f ops/s: %.0f ops/s completed; search starts at %.0f", lad[len(lad)-1], x, lad[i])
	dur := (budget-satDur)/(maxProbes-1) - probePause
	pass, fail := -1, len(lad) // highest passing, lowest failing step
	probes := 1
	// Past maxProbes the search only goes on while no step has passed, so
	// a slow machine still yields a measured rate.
	for probes < maxProbes || (pass < 0 && i > 0) {
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			pr := b.probe(lad[i], dur)
			probes++
			ok = pr.pass
			b.rep.note("probe %8.0f ops/s pass=%-5v steal=%.3f ingest_p99=%.2fms read_p99=%.2fms fail=%.4f backlog=%.4f",
				pr.rate, pr.pass, pr.steal, pr.ingP99, pr.readP99, pr.failFrac, pr.backlogFrac)
		}
		if ok {
			pass = i
		} else {
			fail = i
		}
		switch {
		case fail == len(lad):
			i = min(pass+stride, len(lad)-1)
			stride *= 2
		case pass < 0:
			i = max(fail-stride, 0)
			stride *= 2
		default:
			i = (pass + fail) / 2
		}
		if i == pass || i == fail {
			break
		}
	}
	if pass < 0 {
		return 0, probes
	}
	return lad[pass], probes
}

// fixedPhase offers the workload's fixed rate for dur as one continuous
// open-loop schedule, so a backlog built up in a stall is carried and
// charged from each operation's due time. It cuts the phase into
// fixedWindow windows by due time and computes each latency and CPU metric
// over the fixedUsed windows in which the hypervisor stole the least CPU
// time from the machine (/proc/stat steal; ties go to the earlier window).
// A fixed count, not a share: a longer phase gives more windows to choose
// from. Operations belong to the window they were due in; p50,
// p99 and CPU per op are taken over the pooled operations of the selected
// windows, skipped operations included at the lower bound of their
// latency. On a shared host, steal comes and goes in bursts and multiplies
// latency while it lasts (a window with a third of its CPU time stolen
// showed a 40× p50); the selection uses that external reading, never the
// windows' own latency. It returns the whole phase's result.
func (b *bench) fixedPhase(dur time.Duration) (phaseResult, error) {
	nw := max(2, int(dur/fixedWindow))
	win := dur / time.Duration(nw)
	pid := b.proc.pid()
	// Machine CPU times and wcmd CPU seconds at each window boundary, read
	// beside the running phase; the last reading follows its drain.
	steal := make([]cpuTimes, nw+1)
	cpu := make([]float64, nw+1)
	var cpuErr error
	readAt := func(i int) {
		steal[i] = readCPUTimes()
		c, err := cpuSeconds(pid)
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		cpu[i] = c
	}
	var all phaseResult
	done := make(chan struct{})
	readAt(0)
	start := time.Now()
	go func() {
		all = b.run.run(b.w.rate, dur)
		close(done)
	}()
	for i := 1; i < nw; i++ {
		sleepUntil(start.Add(time.Duration(i) * win))
		readAt(i)
	}
	<-done
	readAt(nw)
	b.count(all)
	if cpuErr != nil {
		return all, cpuErr
	}

	type window struct {
		steal, cpu float64
		res        phaseResult
	}
	ws := make([]window, nw)
	for i := range ws {
		ws[i].steal = stealFrac(steal[i], steal[i+1])
		ws[i].cpu = cpu[i+1] - cpu[i]
	}
	at := func(s sample) *phaseResult { return &ws[min(int(s.due/win), nw-1)].res }
	for _, s := range all.samples {
		w := at(s)
		w.samples = append(w.samples, s)
	}
	for _, s := range all.skipped {
		w := at(s)
		w.skipped = append(w.skipped, s)
	}
	slices.SortStableFunc(ws, func(x, y window) int { return cmp.Compare(x.steal, y.steal) })
	keep := min(fixedUsed, nw/2)
	var (
		used    phaseResult
		usedCPU float64
		stealHi float64 // highest steal among the windows used
		hist    = map[bool][]float64{}
	)
	for i, w := range ws {
		ok := i < keep
		hist[ok] = append(hist[ok], w.steal)
		if ok {
			used.samples = append(used.samples, w.res.samples...)
			used.skipped = append(used.skipped, w.res.skipped...)
			usedCPU += w.cpu
			stealHi = w.steal
		}
	}
	b.rep.note("windows: %d × %v; steal of the %d used: median %.3f, max %.3f; of the %d left out: median %.3f, max %.3f",
		nw, win, keep, median(hist[true]), stealHi, nw-keep, median(hist[false]), slices.Max(hist[false]))
	ing := dueLatencies(&used, isIngest, false)
	rd := dueLatencies(&used, isRead, false)
	completed := len(used.samples) - used.failed()
	per := fmt.Sprintf("pooled over the %d of %d windows with least steal (≤ %.3f), skipped ops at their lower bound",
		keep, nw, stealHi)
	b.rep.addUngated("ingest_p50_ms", "ms", ms(quantile(ing, 0.5)), len(ing), fmt.Sprintf("%s, at %.0f ops/s offered", per, b.w.rate))
	b.rep.addUngated("ingest_p99_ms", "ms", ms(quantile(ing, 0.99)), len(ing), per)
	b.rep.addUngated("read_p50_ms", "ms", ms(quantile(rd, 0.5)), len(rd), per)
	b.rep.addUngated("read_p99_ms", "ms", ms(quantile(rd, 0.99)), len(rd), per)
	b.rep.addUngated("cpu_us_per_op", "us", usedCPU*1e6/float64(max(1, completed)), completed,
		"wcmd utime+stime / completed ops, "+per)
	late := dueLatencies(&all, anyOp, true)
	b.rep.note("loadgen lateness p50=%.3fms p99=%.3fms skipped=%d of %d due",
		ms(quantile(late, 0.5)), ms(quantile(late, 0.99)), len(all.skipped), all.due())
	return all, nil
}

// endToEnd measures the end-to-end metrics over TCP.
func (b *bench) endToEnd() (result, error) {
	// setup_s is wcmd's CPU time from exec to the end of the preload.
	// Work moved into set-up shows in it as in the wall time, but the
	// wall time of the same set-ups doubled from one ten-run round to the
	// next while the host was busy; it is printed, ungated.
	var wall, cpu []float64
	for i := 0; i < setupRuns; i++ {
		d, err := b.setup(i)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		ns, err := cpuNanos(b.proc.pid())
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		wall = append(wall, d.Seconds())
		cpu = append(cpu, float64(ns)/1e9)
	}
	b.rep.add("setup_s", "s", median(cpu), len(cpu), fmt.Sprintf(
		"wcmd CPU time (thread schedstat) from exec to the end of the preload; each: %.4f", cpu))
	b.rep.addUngated("setup_wall_s", "s", median(wall), len(wall), fmt.Sprintf(
		"exec → /healthz 200 → preload, wall time; each: %.3f", wall))

	b.run.run(b.w.rate, warmup)
	total := time.Duration(b.seconds) * time.Second
	fixedDur := time.Duration(float64(total) * fixedShare)
	if _, err := b.fixedPhase(fixedDur); err != nil {
		return result{}, err
	}
	// Peak memory and disk footprint of the process that served the
	// fixed-rate phase, before any restart.
	hwm, err := vmHWMBytes(b.proc.pid())
	if err != nil {
		return result{}, err
	}
	b.rep.add("rss_peak_mb", "MB", hwm/(1<<20), 1, "VmHWM")
	var acked int64
	for _, s := range b.gen.streams {
		acked += s.total
	}
	disk, err := dirBytes(b.dataDir)
	if err != nil {
		return result{}, err
	}
	b.rep.add("disk_bytes_per_sample", "B", float64(disk)/float64(max(1, acked)), int(acked),
		"data directory bytes / acknowledged samples")
	oc := checkOutputs(b.addr, b.gen.streams, b.seed)
	b.countCheck(oc)
	b.rep.note("output check: %d compared, %d mismatches", oc.attempted, oc.failed)

	// Recovery replays what setup, warmup and the fixed phase wrote, the
	// same amount of data on every run of a workload.
	var recs []float64
	for i := 0; i < recoverRuns; i++ {
		d, err := b.recoverOnce()
		if err != nil {
			return result{}, fmt.Errorf("recovery: %w", err)
		}
		recs = append(recs, d.Seconds())
	}
	b.rep.addUngated("recovery_s", "s", median(recs), len(recs), fmt.Sprintf("SIGKILL → restart → /healthz 200; each: %.3f", recs))
	rc := checkOutputs(b.addr, b.gen.streams, b.seed+1)
	b.countCheck(rc)
	b.rep.note("crash-recovery output check: %d compared, %d mismatches", rc.attempted, rc.failed)

	capRate, probes := b.capacity(total - fixedDur)
	b.rep.addUngated("capacity_ops_s", "ops/s", capRate, probes,
		fmt.Sprintf("ladder probes; p99 ≤ %gms, fail_frac ≤ %g, backlog ≤ %g", p99LimitMs, failLimit, backlogLimit))
	lc := checkOutputs(b.addr, b.gen.streams, b.seed+2)
	b.countCheck(lc)
	b.rep.note("output check after the ladder: %d compared, %d mismatches", lc.attempted, lc.failed)

	failFrac := float64(b.failed) / float64(max(1, b.attempted))
	b.rep.addUngated("fail_frac", "ratio", failFrac, b.attempted, "failed / attempted (0 by design; carried by attempted and failed)")
	return b.finish(), nil
}

// finish prints the report and machine record and builds the result.
func (b *bench) finish() result {
	for _, e := range b.errs {
		b.rep.note("failure: %s", e)
	}
	for _, l := range b.rep.lines {
		fmt.Println(l)
	}
	mr := machineRecord(b.w, b.dataDir)
	mr["cpu_steal_frac"] = stealFrac(b.cpu0, readCPUTimes())
	rec, _ := json.Marshal(mr)
	fmt.Println("machine " + string(rec))
	return result{
		Correct:   b.failed == 0,
		Attempted: max(1, b.attempted),
		Failed:    b.failed,
		Metrics:   b.rep.metrics,
	}
}

// machineRecord states what the numbers were measured on. A fact not
// measured here is null.
func machineRecord(w *workload, dataDir string) map[string]any {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	var kern any
	if err == nil {
		kern = strings.TrimSpace(string(kernel))
	}
	return map[string]any{
		"num_cpu":              runtime.NumCPU(),
		"gomaxprocs_perfbench": runtime.GOMAXPROCS(0),
		"gomaxprocs_wcmd":      runtime.NumCPU(), // set explicitly in its environment
		"go_version":           runtime.Version(),
		"kernel":               kern,
		"data_dir_fs":          fsName(filepath.Dir(dataDir)),
		"connections":          runtime.NumCPU(),
		"workload":             w.name,
		"arrivals":             arrivalName(w),
		"offered_rate_ops_s":   w.rate,
		"ladder_ops_s":         ladder,
		"p99_limit_ms":         p99LimitMs,
		"wcmd_flags":           strings.Join(wcmdFlags("<addr>", "<data-dir>"), " "),
	}
}

func arrivalName(w *workload) string {
	if w.gammaShape > 0 {
		return fmt.Sprintf("gamma(shape=%g)", w.gammaShape)
	}
	return "poisson"
}
