package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wcmdFlags is the one command line every workload runs wcmd with: its
// shipped defaults plus a data directory and two tenants whose token
// buckets are far above any offered rate.
func wcmdFlags(addr, dataDir string) []string {
	return []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync", "batch",
		"-tenant", "alpha:interactive:1000000:100000",
		"-tenant", "beta:batch:1000000:100000",
	}
}

// wcmdProc is one running wcmd.
type wcmdProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startWcmd execs wcmd on dataDir and waits for /healthz to answer 200.
// GOMAXPROCS is set explicitly (to its default, the CPU count) so the
// machine record states it instead of assuming it.
func startWcmd(bin, addr, dataDir, logPath string) (*wcmdProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, wcmdFlags(addr, dataDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// If this process dies without cleaning up (SIGKILL, a closed stdout),
	// the kernel kills wcmd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start wcmd: %w", err)
	}
	p := &wcmdProc{cmd: cmd, addr: addr, log: logf}
	if err := p.waitHealthy(60 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func (p *wcmdProc) waitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		if p.cmd.ProcessState != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("wcmd at %s not healthy within %v", p.addr, limit)
}

// kill SIGKILLs wcmd and waits for it to exit.
func (p *wcmdProc) kill() {
	if p == nil || p.cmd == nil {
		return
	}
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	p.cmd.Wait()         //nolint:errcheck // killed on purpose
	p.log.Close()
	p.cmd = nil
}

func (p *wcmdProc) pid() int { return p.cmd.Process.Pid }

// cpuSeconds reads utime+stime of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// cpuNanos returns the CPU time, in ns, that the live threads of process
// pid have run: the sum of the first field of /proc/<pid>/task/*/schedstat.
// It is finer than the clock ticks of /proc/<pid>/stat.
func cpuNanos(pid int) (int64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat of task %s", t.Name())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of task %s: %w", t.Name(), err)
		}
		sum += n
	}
	return sum, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTimes is the machine-wide /proc/stat cpu line: total jiffies and the
// steal share of them (time the hypervisor ran something else while a
// vCPU of the machine running the benchmark was ready to run).
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || i >= 8 {
			break // guest time is already inside user
		}
		t.total += x
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// stealFrac returns the steal share of the CPU time between two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// vmHWMBytes reads the peak resident set of pid from /proc/<pid>/status.
func vmHWMBytes(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// fsName names the filesystem holding dir, from statfs's magic number.
func fsName(dir string) any {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return nil
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// promSnapshot is one /metrics scrape: series text (name plus labels) to
// value.
type promSnapshot map[string]float64

func scrape(addr string) (promSnapshot, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d", resp.StatusCode)
	}
	out := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name whose labels contain all of
// the given label pairs (e.g. `stage="update"`).
func (p promSnapshot) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range p {
		fam, rest, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// diff returns after − before for the family, label-filtered like sum.
func diff(before, after promSnapshot, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histQuantile estimates the q-quantile of the increments of a Prometheus
// histogram family between two scrapes, interpolating linearly inside the
// bucket that holds it.
func histQuantile(before, after promSnapshot, name string, q float64, labels ...string) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k := range after {
		fam, rest, _ := strings.Cut(k, "{")
		if fam != name+"_bucket" {
			continue
		}
		skip := false
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				skip = true
			}
		}
		i := strings.Index(rest, `le="`)
		if skip || i < 0 {
			continue
		}
		leStr := rest[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := math.Inf(1)
		if leStr != "+Inf" {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = v
		}
		bs = append(bs, bucket{le, after[k] - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	// Buckets of several label sets with the same bound are cumulative
	// each; merge them by bound.
	var merged []bucket
	for _, b := range bs {
		if n := len(merged); n > 0 && merged[n-1].le == b.le {
			merged[n-1].n += b.n
		} else {
			merged = append(merged, b)
		}
	}
	if len(merged) == 0 || merged[len(merged)-1].n == 0 {
		return 0
	}
	target := q * merged[len(merged)-1].n
	prevLe, prevN := 0.0, 0.0
	for _, b := range merged {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(target-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}
