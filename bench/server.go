package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"secemb/internal/wire"
)

// tokenKey is the fixed HMAC key shared by the spawned server and the
// load generator's clients.
const tokenKey = "0101010101010101010101010101010101010101010101010101010101010101"

// backendCount is secembd's -backends, and so its shard count: one replica
// per core of the two-core machines the benchmark is sized for.
const backendCount = 2

// Harness flags: they place and authenticate the server and bound its
// shutdown, and define no part of the workload. -drain-grace only shortens
// the 503 period before the listener closes, which nothing measures.
// -timeout is raised from 2 s to the client's own limit so that a host that
// freezes the whole machine for seconds costs latency, not a failed request.
func harnessFlags(addr string) []string {
	return []string{"-addr", addr, "-token-key", tokenKey, "-backends", strconv.Itoa(backendCount),
		"-drain-grace", "100ms", "-timeout", reqTimeout.String()}
}

// server is one spawned secembd process.
type server struct {
	addr    string
	cmd     *exec.Cmd
	started time.Time

	// out collects stdout and stderr. os/exec writes both through one
	// goroutine when they are the same writer, and Wait returns after it;
	// read it only once done is closed.
	out bytes.Buffer

	done    chan struct{} // closed once the process has been reaped
	waitErr error
}

// freeAddr picks a loopback port that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns bin with the harness flags plus args. Cancelling ctx
// kills the process, so an aborted benchmark leaves no orphan behind.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, done: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, append(harnessFlags(addr), args...)...)
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = &s.out
	s.cmd.WaitDelay = time.Second
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers, the process dies, or the
// timeout passes.
func (s *server) waitHealthy(ctx context.Context, c *wire.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("secembd exited before becoming healthy: %v\n%s", s.waitErr, s.out.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		// Not a Go timer: an idle runtime rounds it up to a millisecond,
		// which is several percent of a 30 ms set-up.
		sleepUntil(time.Now().Add(200 * time.Microsecond))
		if time.Now().After(deadline) {
			return fmt.Errorf("secembd not healthy after %v: %v", timeout, err)
		}
	}
}

var drainedRE = regexp.MustCompile(`drained; served=(\d+) errors=(\d+) shed=(\d+)`)

// drainStats is the server's own account of the run, from its last line.
type drainStats struct{ served, errors, shed int }

func parseDrained(out string) (drainStats, error) {
	m := drainedRE.FindStringSubmatch(out)
	if m == nil {
		return drainStats{}, errors.New("no `drained; served=…` line in secembd output")
	}
	var d drainStats
	d.served, _ = strconv.Atoi(m[1])
	d.errors, _ = strconv.Atoi(m[2])
	d.shed, _ = strconv.Atoi(m[3])
	return d, nil
}

// stop asks for a graceful drain and insists on it: SIGTERM must lead to
// exit code 0 and a drained line within timeout, else the process is
// killed and the run fails.
func (s *server) stop(timeout time.Duration) (drainStats, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-dead process shows below
	select {
	case <-s.done:
	case <-time.After(timeout):
		s.kill()
		return drainStats{}, fmt.Errorf("secembd ignored SIGTERM for %v; killed\n%s", timeout, s.out.String())
	}
	if s.waitErr != nil {
		return drainStats{}, fmt.Errorf("secembd exit: %v\n%s", s.waitErr, s.out.String())
	}
	return parseDrained(s.out.String())
}

// kill is the hard stop; it returns once the process has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the process's user+system CPU so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func parseStatCPU(stat string) (time.Duration, error) {
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, the 12th and 13th after ")".
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rssPeakMiB is the process's resident high-water mark (VmHWM).
func (s *server) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
