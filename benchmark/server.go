package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// buildServer compiles the shipped cmd/vodserver from the checkout at root
// into outDir. Build time is not part of any metric.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "vodserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vodserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/vodserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running vodserver child.
type serverProc struct {
	cmd       *exec.Cmd
	Addr      string
	StatsAddr string
	Pinned    bool
	stderr    bytes.Buffer
	exited    chan error
	stopped   bool
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs the server with the operator flags only (everything
// else at its default, telemetry on) and returns once it accepts a
// connection. ready is the time from exec to that first accepted connection.
func startServer(bin string, w workload, pl placement) (sp *serverProc, ready time.Duration, err error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	statsAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	sp = &serverProc{Addr: addr, StatsAddr: statsAddr, exited: make(chan error, 1)}
	sp.cmd = exec.Command(bin,
		"-addr", addr, "-stats-addr", statsAddr,
		"-videos", strconv.Itoa(w.Videos), "-segments", strconv.Itoa(w.Segments),
		"-segment-bytes", strconv.Itoa(w.SegmentBytes), "-slot-ms", strconv.Itoa(w.SlotMillis))
	sp.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pl.ServerProcs))
	sp.cmd.Stderr = &sp.stderr
	t0 := time.Now()
	if pl.Pinned {
		err = startPinned(sp.cmd, pl.ServerCPUs, pl.DriverCPUs)
	} else {
		err = sp.cmd.Start()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { sp.exited <- sp.cmd.Wait() }()
	for {
		conn, derr := net.DialTimeout("tcp", addr, time.Second)
		if derr == nil {
			ready = time.Since(t0)
			conn.Close()
			break
		}
		select {
		case werr := <-sp.exited:
			return nil, 0, fmt.Errorf("vodserver exited before accepting: %v\n%s", werr, sp.stderr.String())
		default:
		}
		if time.Since(t0) > 30*time.Second {
			sp.stop()
			return nil, 0, fmt.Errorf("vodserver not accepting on %s after 30s", addr)
		}
		time.Sleep(100 * time.Microsecond)
	}
	sp.Pinned = pl.Pinned && slices.Equal(cpusAllowed(sp.pid()), pl.ServerCPUs)
	return sp, ready, nil
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// stop interrupts the server and waits for it; a server that ignores the
// interrupt is killed. It returns only once the process has ended, and may
// be called again.
func (sp *serverProc) stop() {
	if sp.stopped {
		return
	}
	sp.stopped = true
	_ = sp.cmd.Process.Signal(os.Interrupt)
	select {
	case <-sp.exited:
		return
	case <-time.After(5 * time.Second):
	}
	_ = sp.cmd.Process.Kill()
	<-sp.exited
}

// cpusAllowed reads the process's affinity as the kernel reports it, the
// check that pinning by inheritance actually took.
func cpusAllowed(pid int) []int {
	return parseCPUList(statusField(fmt.Sprintf("/proc/%d/status", pid), "Cpus_allowed_list:"))
}

// parseCPUList expands the kernel's list format, e.g. "0-1,3".
func parseCPUList(list string) []int {
	var cpus []int
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

func statusField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// userHz is the unit of utime/stime in /proc/<pid>/stat. It is 100 on every
// Linux architecture Go supports; reading it would need cgo.
const userHz = 100

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	At                  time.Time
	UserUs, SysUs       float64
	ReadCalls, WriteOps int64
	WriteBytes          int64
	CtxSwitches         int64
	PeakRSSKB           int64
}

// readProc samples /proc/<pid>/{stat,io,status}. CPU time and syscall counts
// are process-wide and survive thread exit; context switches are kept per
// task, so they are summed over the live tasks.
func readProc(pid int) (procSample, error) {
	s := procSample{At: time.Now()}
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return s, fmt.Errorf("%s/stat: %d fields", dir, len(rest))
	}
	utime, _ := strconv.ParseInt(rest[11], 10, 64)
	stime, _ := strconv.ParseInt(rest[12], 10, 64)
	s.UserUs = float64(utime) * 1e6 / userHz
	s.SysUs = float64(stime) * 1e6 / userHz

	ioData, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(ioData), "\n") {
		key, val, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseInt(val, 10, 64)
		switch key {
		case "syscr":
			s.ReadCalls = n
		case "syscw":
			s.WriteOps = n
		case "wchar":
			s.WriteBytes = n
		}
	}
	hwm := strings.Fields(statusField(dir+"/status", "VmHWM:"))
	if len(hwm) > 0 {
		s.PeakRSSKB, _ = strconv.ParseInt(hwm[0], 10, 64)
	}
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		path := dir + "/task/" + t.Name() + "/status"
		for _, key := range []string{"voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"} {
			n, _ := strconv.ParseInt(statusField(path, key), 10, 64)
			s.CtxSwitches += n
		}
	}
	return s, nil
}

// cpuMark is the process's cumulative CPU time at one instant.
type cpuMark struct {
	At    time.Time
	CPUNs int64
}

// readCPUMark sums the run time of the process's tasks from the scheduler's
// own accounting, which has nanosecond resolution where /proc/<pid>/stat
// counts 10 ms ticks.
func readCPUMark(pid int) (cpuMark, error) {
	m := cpuMark{At: time.Now()}
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return m, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the task exited between the listing and the read
		}
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			ns, _ := strconv.ParseInt(fields[0], 10, 64)
			m.CPUNs += ns
		}
	}
	return m, nil
}

// scrape fetches /metricsz (optionally one name prefix) and returns every
// sample keyed by its exposition name, labels included.
func scrape(statsAddr, prefix string) (map[string]float64, error) {
	resp, err := http.Get("http://" + statsAddr + "/metricsz?prefix=" + prefix)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("/metricsz: %s: %s", resp.Status, body)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
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

// family sums every child of one metric family in a scrape.
func family(m map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
