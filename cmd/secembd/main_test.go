package main

import (
	"bytes"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"secemb/internal/cli"
	"secemb/internal/obs"
	"secemb/internal/profile"
	"secemb/internal/wire"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestUsageErrorsExitTwo: every configuration mistake the flag sweep does
// not generate (unknown and paired flags, cross-flag rules, negative
// durations in units above the sweep's -1ns) is caught before a listener
// opens and exits 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-tls-cert", "cert.pem"},
		{"-shards", "9", "-backends", "2"},
		{"-backends", "300"},
		{"-max-wait", "-1s"},
		{"-timeout", "-1s"},
		{"-drain-grace", "-1s"},
		{"-shed-wait", "-1ms"},
		// A self-hosted soak whose requests its own server must reject.
		{"-soak", "-batch", "65"},
		{"-soak", "-batch", "2", "-max-batch", "1"},
		{"-soak", "-batch", "0", "-target", "127.0.0.1:1"},
		// Short enough that a soak which wrongly starts still ends.
		{"-soak", "-plan", "-plan-interval", "-1s", "-duration", "200ms", "-conns", "1",
			"-rows", "256", "-dim", "8", "-backends", "1"},
	} {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr)
		}
		if strings.Contains(stderr, "goroutine ") {
			t.Errorf("run(%q) dumped a stack trace: %s", args, stderr)
		}
	}
}

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds,
// each run a self-hosted soak of about 50 ms with every gate but the error
// rate off. It covers -backends 0, -max-batch 0, -queue-depth -1,
// -conn-streams -1 and -soak -conns 0, which TestUsageErrorsExitTwo listed.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-soak", "-rows", "256", "-dim", "8", "-backends", "2",
		"-conns", "1", "-batch", "1", "-duration", "50ms", "-min-requests", "0", "-max-p99", "0", "-max-shed", "-1")
}

// soakArgs is a sub-second self-hosted soak: the full serve stack on a
// loopback listener, 8 connections, gated on completing at all. The latency
// and shed gates are off — this drives the assembly, not the host's speed.
var soakArgs = []string{"-soak", "-rows", "256", "-dim", "8", "-backends", "2", "-conns", "8",
	"-duration", "300ms", "-min-requests", "1", "-max-p99", "0", "-max-shed", "-1"}

// TestSoakSmoke drives soak and the gate directly against a token-checking
// server: the run makes progress, a realistic gate passes it, and an
// impossible p99 bound fails it.
func TestSoakSmoke(t *testing.T) {
	c := &config{}
	if _, ok := cli.Parse(newFlags(c), []string{"-soak", "-rows", "256", "-dim", "8", "-backends", "2", "-conns", "8",
		"-duration", "300ms", "-batch", "4", "-seed", "1",
		"-min-requests", "8", "-max-p99", "5s", "-max-shed", "0.5"}, io.Discard); !ok {
		t.Fatal("soak flags did not parse")
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	var key wire.Key
	addr, _, drain, err := startServer(c, obs.NewRegistry(), "127.0.0.1:0",
		wire.ServerConfig{Key: key, RequireToken: true}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = drain(0) }()

	rep := soak(c, addr, key, nil)
	if rep.requests == 0 || rep.ok == 0 {
		t.Fatalf("soak made no progress: %s", rep)
	}
	if err := c.checkGate(rep); err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	impossible := *c
	impossible.maxP99 = time.Nanosecond
	if err := impossible.checkGate(rep); err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("gate with an impossible p99 bound returned %v, want a p99 failure", err)
	}
}

// TestSoakGateNoRequests: a soak that completed no request fails the gate
// even with -min-requests 0, and says that no request completed instead of
// naming an error rate that no request measured.
func TestSoakGateNoRequests(t *testing.T) {
	c := &config{maxShed: 0.05}
	err := c.checkGate(&soakReport{conns: 1, duration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "no request completed") || strings.Contains(err.Error(), "error rate") {
		t.Fatalf("gate on a zero-request soak returned %v, want a no-request failure", err)
	}
}

func TestSelfHostedSoak(t *testing.T) {
	planFile := filepath.Join(t.TempDir(), "plan.json")
	for name, extra := range map[string][]string{
		"h2c":  nil,
		"tls":  {"-tls"},
		"plan": {"-plan", "-plan-interval", "50ms", "-plan-file", planFile},
	} {
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runCLI(append(append([]string{}, soakArgs...), extra...)...)
			if code != 0 || !strings.Contains(stdout, "soak gate passed") {
				t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			// The clients close every connection they opened, so the drain
			// does not wait out HTTP/2's one-second GOAWAY grace for a
			// connection whose last stream the deadline canceled.
			m := regexp.MustCompile(`drained in (\S+)`).FindStringSubmatch(stdout)
			if m == nil {
				t.Fatalf("no drain time in stdout: %s", stdout)
			}
			if d, err := time.ParseDuration(m[1]); err != nil || d >= 500*time.Millisecond {
				t.Fatalf("drain took %s, want under 500ms (%v)", m[1], err)
			}
		})
	}
	// The gate has teeth: an impossible p99 bound fails a run that made
	// progress, with exit 1 and the gate's message.
	code, stdout, stderr := runCLI(append(append([]string{}, soakArgs...), "-max-p99", "1ns")...)
	if code != 1 || !strings.Contains(stderr, "soak gate: p99 ") || !strings.Contains(stdout, " ok=") ||
		strings.Contains(stdout, " ok=0 ") {
		t.Fatalf("impossible p99: exit %d, want 1 after some ok requests\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	// The planner-managed soak drained through the same path as serve, so it
	// persisted what its planner observed: the soak's traffic, seen at the
	// swap points, on the technique -plan starts from.
	m, err := profile.LoadCostModelFile(planFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) == 0 {
		t.Fatal("planner-managed soak observed no traffic: cost model has no fitted stream")
	}
	for _, e := range m.Entries {
		if e.Tech != "scanb" || !strings.HasPrefix(e.Shard, planTable+"/") {
			t.Fatalf("unexpected stream %+v, want scanb on an %s shard", e, planTable)
		}
	}
}
