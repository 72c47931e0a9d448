package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one server-side process the harness started.
type child struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	addr    string // host:port scraped from its listen line
	exited  chan struct{}
	waitErr error
}

// runtimeEnvKnobs are stripped from children's environments so the
// program runs with default Go runtime settings whatever the caller's
// shell exports.
var runtimeEnvKnobs = []string{"GOGC", "GOMAXPROCS", "GODEBUG", "GOMEMLIMIT"}

func childEnv(env []string) []string {
	var out []string
next:
	for _, kv := range env {
		for _, k := range runtimeEnvKnobs {
			if strings.HasPrefix(kv, k+"=") {
				continue next
			}
		}
		out = append(out, kv)
	}
	return out
}

// listenAddr extracts the address from a child's machine-readable
// listen line ("serving on HOST:PORT (...)" or "site listening on
// HOST:PORT (...)"); ok is false for any other line.
func listenAddr(line string) (addr string, ok bool) {
	for _, prefix := range []string{"serving on ", "site listening on "} {
		if rest, found := strings.CutPrefix(line, prefix); found {
			f := strings.Fields(rest)
			if len(f) > 0 && strings.Contains(f[0], ":") {
				return f[0], true
			}
		}
	}
	return "", false
}

// procs owns every child of a run; stopAll is safe to call from any
// exit path, more than once.
type procs struct {
	mu       sync.Mutex
	children []*child
	logDir   string
}

// start launches bin with args, tees its output to a log under logDir,
// and waits for its listen line.
func (ps *procs) start(ctx context.Context, name, bin string, args ...string) (*child, error) {
	if err := os.MkdirAll(ps.logDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(ps.logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv(os.Environ())
	cmd.Stderr = logf
	// The child dies with the harness even if the harness is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	ps.mu.Lock()
	ps.children = append(ps.children, c)
	ps.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		// Reads stdout to EOF (so the child never blocks on a full pipe),
		// then reaps the process.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := listenAddr(line); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		c.waitErr = cmd.Wait()
		logf.Close()
		close(c.exited)
	}()
	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, c.waitErr, logPath)
	case <-ctx.Done():
		return nil, fmt.Errorf("%s did not listen in time: %w", name, ctx.Err())
	}
}

// stop signals a child and waits until it has ended, escalating to
// SIGKILL after grace.
func (c *child) stop(sig syscall.Signal, grace time.Duration) {
	select {
	case <-c.exited:
		return
	default:
	}
	c.cmd.Process.Signal(sig)
	select {
	case <-c.exited:
	case <-time.After(grace):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// stopAll ends every child still running.
func (ps *procs) stopAll(sig syscall.Signal) {
	ps.mu.Lock()
	cs := append([]*child(nil), ps.children...)
	ps.children = nil
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() { defer wg.Done(); c.stop(sig, 15*time.Second) }()
	}
	wg.Wait()
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, c *child) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+c.addr+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited while starting; see %s", c.name, c.logPath)
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy in time: %w", c.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// statusKB reads a "Key:   N kB" field of /proc/<pid>/status text.
func statusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in process status", key)
}

// peakRSSKB is the process's VmHWM.
func peakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return statusKB(string(b), "VmHWM")
}

// statUsage extracts utime+stime (clock ticks) and minflt+majflt (page
// faults) from /proc/<pid>/stat text. The command name (field 2) may
// contain spaces and parentheses, so fields are counted from the last
// ')'.
func statUsage(stat string) (cpuTicks, faults int64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 { // state is f[0]; minflt, majflt, utime, stime are fields 10, 12, 14, 15 overall
		return 0, 0, fmt.Errorf("short stat line")
	}
	var v [4]int64
	for j, k := range []int{7, 9, 11, 12} {
		if v[j], err = strconv.ParseInt(f[k], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("malformed stat line: %w", err)
		}
	}
	return v[2] + v[3], v[0] + v[1], nil
}

// clockTick is USER_HZ; Linux has fixed it at 100 on every architecture
// Go supports.
const clockTick = 100

// procUsage is the CPU time a process has used and the page faults it
// has taken so far.
func procUsage(pid int) (cpuS float64, faults int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	t, faults, err := statUsage(string(b))
	return float64(t) / clockTick, faults, err
}

// selfCPUSeconds is the harness's own CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// memStats is the part of runtime.MemStats the heap profile's debug=1
// text carries that the benchmark uses.
type memStats struct {
	totalAlloc, mallocs, numGC uint64
	pauseNs                    []uint64 // circular buffer of recent pauses
}

var memStatLine = regexp.MustCompile(`(?m)^# (\w+) = (.*)$`)

// parseMemStats reads the "# Name = value" trailer of
// /debug/pprof/heap?debug=1.
func parseMemStats(text string) (memStats, error) {
	var m memStats
	found := 0
	for _, mm := range memStatLine.FindAllStringSubmatch(text, -1) {
		var dst *uint64
		switch mm[1] {
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "Mallocs":
			dst = &m.mallocs
		case "NumGC":
			dst = &m.numGC
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(mm[2], "[]")) {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("memstats: PauseNs: %w", err)
				}
				m.pauseNs = append(m.pauseNs, v)
			}
			continue
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(mm[2]), 10, 64)
		if err != nil {
			return m, fmt.Errorf("memstats: %s: %w", mm[1], err)
		}
		*dst = v
		found++
	}
	if found < 3 {
		return m, fmt.Errorf("memstats: heap profile text lacks TotalAlloc/Mallocs/NumGC")
	}
	return m, nil
}

// gcPauseNs sums the pauses of the collections numbered after before's
// last one up to after's last one, from after's circular buffer (which
// holds the most recent len(pauseNs) of them).
func gcPauseNs(before, after memStats) uint64 {
	n := uint64(len(after.pauseNs))
	if n == 0 {
		return 0
	}
	var sum uint64
	first := before.numGC
	if after.numGC > n && first < after.numGC-n {
		first = after.numGC - n
	}
	for gc := first; gc < after.numGC; gc++ {
		sum += after.pauseNs[gc%n]
	}
	return sum
}

func readMemStats(ctx context.Context, hc *http.Client, addr string) (memStats, error) {
	body, err := httpGet(ctx, hc, "http://"+addr+"/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(string(body))
}

func httpGet(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
