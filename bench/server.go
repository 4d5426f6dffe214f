package main

// The server under test as a child process, plus the few things the
// harness reads from outside it: /proc counters and public endpoints.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type serverProc struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	client *http.Client
}

// clientConns is how many connections the one load-generating process
// holds to the server (nproc here); recorded in the report.
const clientConns = 2

// startServer execs the server binary with production-default flags
// (plus extra) on a free loopback port and waits until /healthz answers.
func startServer(bin, runDir string, extra ...string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(runDir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-demo=false"}, extra...)...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, logf: logf, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
		Timeout:   60 * time.Second,
	}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server did not become healthy on %s (see %s)", addr, logf.Name())
		}
	}
}

// kill SIGKILLs the server and waits for it: the crash of the ingest
// durability check, and the ordinary way every run ends.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	_ = s.cmd.Wait()
	s.client.CloseIdleConnections()
	s.logf.Close()
}

// do sends one request and returns status and body.
func (s *serverProc) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// call is do for set-up steps: any non-2xx answer is an error.
func (s *serverProc) call(method, path string, body any, out any) error {
	var raw []byte
	if body != nil {
		raw, _ = json.Marshal(body)
	}
	status, resp, err := s.do(method, path, raw)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// cpuSeconds is the server's user+sys CPU time from /proc/<pid>/stat.
func (s *serverProc) cpuSeconds() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks (100/s).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB is the server's resident high-water mark (VmHWM).
func (s *serverProc) peakRSSMB() float64 {
	raw, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters is one reading of the server's public telemetry.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions float64
	walBytes, walFsyncs                    float64
	gcPauseS, gcCycles, heapBytes          float64
}

func (s *serverProc) readCounters() (counters, error) {
	var c counters
	var cs struct{ Hits, Misses, Evictions float64 }
	if err := s.call("GET", "/api/v1/cache/stats", nil, &cs); err != nil {
		return c, err
	}
	c.cacheHits, c.cacheMisses, c.cacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	var ps struct {
		Stats struct {
			Fsyncs float64
			Graphs []struct {
				WALBytes float64 `json:"wal_bytes"`
			}
		}
	}
	if err := s.call("GET", "/api/v1/admin/persistence", nil, &ps); err != nil {
		return c, err
	}
	c.walFsyncs = ps.Stats.Fsyncs
	for _, g := range ps.Stats.Graphs {
		c.walBytes += g.WALBytes
	}
	_, text, err := s.do("GET", "/metrics", nil)
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "expfinder_gc_pause_seconds_total":
			c.gcPauseS = v
		case "expfinder_gc_cycles_total":
			c.gcCycles = v
		case "expfinder_heap_alloc_bytes":
			c.heapBytes = v
		}
	}
	return c, nil
}
