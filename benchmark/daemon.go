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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running sspcd process on a loopback port. Every daemon the
// benchmark starts is stopped on every exit path: stop runs deferred by its
// owner, the signal handler cancels the owner's context, and the kernel
// kills the daemon if the benchmark itself dies.
//
// The daemon's parent-death signal and the process measurements below are
// Linux features, so the benchmark runs on Linux only.
type daemon struct {
	cmd  *exec.Cmd
	pid  int
	base string // http://127.0.0.1:<port>

	exited  chan struct{} // closed once Wait has returned
	waitErr error
	once    sync.Once
}

// startDaemon launches the sspcd binary on a free loopback port with the
// extra flags and returns once /healthz answers.
func startDaemon(ctx context.Context, bin string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-drain", "1s"}, extra...)...)
	// The daemon's own log lines must not mix into the result on stdout.
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sspcd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, 20*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("sspcd exited before answering /healthz: %v", d.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sspcd did not answer /healthz within %v", limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop kills the daemon and waits until the process has ended. It is safe to
// call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // fails only when the process already exited
		<-d.exited
	})
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. The
// kernel fixes it at 100 on every architecture Go supports on Linux.
const clockTicks = 100

// procCPUSeconds returns the user+system CPU time process pid has used.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are plain.
	// utime and stime are fields 14 and 15, i.e. 12 and 13 after the name.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return (ut + st) / clockTicks, nil
}

// procMemMB returns a memory field of /proc/<pid>/status, such as VmRSS
// (resident set now) or VmHWM (its high-water mark), in MiB.
func procMemMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is how often a run samples the resident set of the process doing
// the work.
const rssEvery = 50 * time.Millisecond

// rssSampler records a process's resident set size every rssEvery. Its
// median is steadier than the high-water mark, which one badly timed garbage
// collection can raise.
type rssSampler struct {
	stopc, done chan struct{}
	samples     []float64
	err         error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := procMemMB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the median sample.
func (s *rssSampler) stop() (float64, error) {
	close(s.stopc)
	<-s.done
	return median(s.samples), s.err
}
