package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchBin and sspcdBin are built once for every test that needs a real
// process.
var benchBin, sspcdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	benchBin, sspcdBin = filepath.Join(dir, "benchmark"), filepath.Join(dir, "sspcd")
	for _, b := range [][]string{{benchBin, "."}, {sspcdBin, "repro/cmd/sspcd"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", b[1], err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The driver's invocation form: double-dash flags with separate values, and
// a last stdout line holding exactly the four result keys.
func TestSingleWorkloadResultLine(t *testing.T) {
	cmd := exec.Command(benchBin, "--workload", "fit-lowdim", "--seed", "3", "--seconds", "1", "--trace", "0", "--sspcd", sspcdBin)
	cmd.Dir = t.TempDir()
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %q", lines[len(lines)-1])
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
}

// A one-second run of every workload, untraced and traced, emits every
// metric BENCHMARK.json names with its unit, both as a text line and in the
// -out records, and every output check passes.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]specEntry{sp.EndToEnd, sp.PerLayer} {
		dir := t.TempDir()
		outFile := filepath.Join(dir, "out.json")
		cmd := exec.Command(benchBin, "-seed", "5", "-seconds", "1", "-trace", strconv.Itoa(trace), "-sspcd", sspcdBin, "-out", outFile)
		cmd.Dir = dir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, stderr.String())
		}
		recs, err := loadRecords([]string{outFile})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(sp.Workloads) {
			t.Fatalf("trace %d: %d records for %d workloads", trace, len(recs), len(sp.Workloads))
		}
		for i, rec := range recs {
			if rec.Workload != sp.Workloads[i].Name || rec.Trace != trace || !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("record %d: workload %s trace %d correct %v attempted %d failed %d",
					i, rec.Workload, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", rec.Workload, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("%s trace %d: metric %s = %+v, want a positive value in %s", rec.Workload, trace, m.Name, v, m.Unit)
				}
				line := fmt.Sprintf("\n%s %s %.6g %s\n", rec.Workload, m.Name, v.Value, m.Unit)
				if !strings.Contains("\n"+stdout.String(), line) {
					t.Errorf("stdout lacks the line %q", strings.TrimSpace(line))
				}
			}
		}
	}
}

// Stopping a daemon ends and reaps its process, and stopping twice is safe.
func TestDaemonStopLeavesNoProcess(t *testing.T) {
	d, err := startDaemon(context.Background(), sspcdBin)
	if err != nil {
		t.Fatal(err)
	}
	pid := d.cmd.Process.Pid
	if !alive(pid) {
		t.Fatalf("daemon %d not running after start", pid)
	}
	d.stop()
	d.stop()
	if alive(pid) {
		t.Errorf("daemon %d still running after stop", pid)
	}
}

// Whether the benchmark is asked to stop (SIGTERM) or killed outright
// (SIGKILL), the daemon it started does not outlive it.
func TestBenchmarkExitLeavesNoDaemon(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGKILL} {
		cmd := exec.Command(benchBin, "-workload", "serve-assign", "-seconds", "30", "-sspcd", sspcdBin)
		cmd.Dir = t.TempDir()
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		daemonPID := 0
		for deadline := time.Now().Add(30 * time.Second); daemonPID == 0 && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			daemonPID = childNamed(cmd.Process.Pid, "sspcd")
		}
		if daemonPID == 0 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("%v: no daemon appeared", sig)
		}
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("%v: benchmark did not exit", sig)
		}
		gone := false
		for deadline := time.Now().Add(5 * time.Second); !gone && time.Now().Before(deadline); {
			gone = !alive(daemonPID)
			time.Sleep(10 * time.Millisecond)
		}
		if !gone {
			syscall.Kill(daemonPID, syscall.SIGKILL)
			t.Errorf("%v: daemon %d outlived the benchmark", sig, daemonPID)
		}
	}
}

// procStat returns a process's state letter, parent pid and command name,
// or ok=false when no such process exists.
func procStat(pid int) (state byte, ppid int, comm string, ok bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, "", false
	}
	open, end := bytes.IndexByte(raw, '('), bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[end+1:]))
	if open < 0 || len(f) < 2 {
		return 0, 0, "", false
	}
	ppid, _ = strconv.Atoi(f[1])
	return f[0][0], ppid, string(raw[open+1 : end]), true
}

// alive reports whether pid is a running (not exited, not zombie) process.
func alive(pid int) bool {
	state, _, _, ok := procStat(pid)
	return ok && state != 'Z' && state != 'X'
}

// childNamed returns the pid of a live child of parent running comm, or 0.
func childNamed(parent int, comm string) int {
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if _, ppid, c, ok := procStat(pid); ok && ppid == parent && c == comm && alive(pid) {
			return pid
		}
	}
	return 0
}
