//go:build linux

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the shipped programs the harness drives from outside.
type binaries struct {
	heraclesd, heraclesfed, colocate, fleet string
}

// moduleRoot walks up from dir to the directory holding this module's
// go.mod; the harness builds the shipped commands from there.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module heracles") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("heraclesbench: no go.mod of module heracles above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles the four shipped commands into binDir with one
// go build. A second call with nothing changed is a staleness check
// (~0.3 s); the time is never part of a metric.
func buildBinaries(root, binDir string) (binaries, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/heraclesd", "./cmd/heraclesfed", "./cmd/colocate", "./cmd/fleet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build of the shipped commands: %v\n%s", err, out)
	}
	return binaries{
		heraclesd:   filepath.Join(binDir, "heraclesd"),
		heraclesfed: filepath.Join(binDir, "heraclesfed"),
		colocate:    filepath.Join(binDir, "colocate"),
		fleet:       filepath.Join(binDir, "fleet"),
	}, nil
}

// tailBuffer keeps the last max bytes written to it: a child's stderr
// tail, reported when the child dies mid-run.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one long-lived child (heraclesd or heraclesfed) and what
// the harness needs to talk to it, watch it and stop it.
type daemon struct {
	name     string
	url      string // http://127.0.0.1:<port>
	pprofURL string // "" unless started with a -pprof-addr
	bootMs   float64

	cmd    *exec.Cmd
	stderr *tailBuffer
	done   chan struct{} // closed once Wait returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds the port, so a collision is possible;
// startDaemon retries on it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// live tracks every running child so that no exit path leaves an
// orphan: stopAll runs from main's deferred cleanup and from the signal
// handler's cancellation.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon launches bin on a free loopback port and returns once
// GET /healthz answers 200. args receives the chosen API address and,
// when pprof is set, a second free address for -pprof-addr.
func startDaemon(ctx context.Context, name, bin string, pprof bool, args func(addr, pprofAddr string) []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startDaemonOnce(ctx, name, bin, pprof, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func startDaemonOnce(ctx context.Context, name, bin string, pprof bool, args func(addr, pprofAddr string) []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	pprofAddr := ""
	if pprof {
		if pprofAddr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	d := &daemon{
		name:   name,
		url:    "http://" + addr,
		stderr: &tailBuffer{max: 4096},
		done:   make(chan struct{}),
	}
	if pprof {
		d.pprofURL = "http://" + pprofAddr
	}
	d.cmd = exec.Command(bin, args(addr, pprofAddr)...)
	d.cmd.Stderr = d.stderr
	// The child dies with the harness even when the harness is killed
	// outright and never reaches its cleanup.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.done)
	}()
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootMs = float64(time.Since(start)) / 1e6
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, d.deathError()
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s: not ready after 15s; stderr tail:\n%s", name, d.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// alive reports whether the child is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// deathError describes a child that exited on its own.
func (d *daemon) deathError() error {
	return fmt.Errorf("%s exited (%v); stderr tail:\n%s", d.name, d.cmd.ProcessState, d.stderr)
}

// stop drains the child with SIGTERM, kills it if it has not exited
// after five seconds, and returns once it has been reaped. Safe to call
// more than once.
func (d *daemon) stop() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	if d.alive() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procStatusKB reads one "<key>:  <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, key)
}

// clockTick is the kernel's USER_HZ: the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPUSeconds is the user plus system CPU time the process has used.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / clockTick, nil
}

// batchResult is one finished batch command.
type batchResult struct {
	stdout   []byte
	cpuS     float64 // user + system
	maxRSSKB float64
}

// runBatch runs a shipped CLI to completion and returns its stdout and
// resource usage. A non-zero exit is an error carrying the stderr tail.
//
// The child's peak resident set is polled from /proc/<pid>/status while
// it runs, keeping the last reading: ru_maxrss from wait4 will not do,
// because a child started by vfork inherits the parent's peak at exec,
// so it would report the harness's memory whenever that is larger.
func runBatch(ctx context.Context, bin string, args ...string) (batchResult, error) {
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: 2048}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return batchResult{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	exited := make(chan struct{})
	hwm := make(chan float64, 1)
	go func() {
		var last float64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-exited:
				hwm <- last
				return
			case <-tick.C:
				// The status file vanishes as the child exits.
				if kb, err := procStatusKB(cmd.Process.Pid, "VmHWM"); err == nil {
					last = kb
				}
			}
		}
	}()
	err := cmd.Wait()
	close(exited)
	res := batchResult{stdout: stdout.Bytes(), maxRSSKB: <-hwm}
	if err != nil {
		return batchResult{}, fmt.Errorf("%s %s: %v; stderr tail:\n%s",
			filepath.Base(bin), strings.Join(args, " "), err, stderr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return res, nil
}
