package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"secemb/internal/profile"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestUsageErrorsExitTwo: every configuration mistake is caught before a
// listener opens and exits 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-autotune", "maybe"},
		{"-tls-cert", "cert.pem"},
		{"-backends", "0"},
		{"-shards", "9", "-backends", "2"},
		{"-backends", "300"},
		{"-max-batch", "0"},
		{"-max-wait", "-1s"},
		{"-timeout", "-1s"},
		{"-drain-grace", "-1s"},
		{"-shed-wait", "-1ms"},
		{"-queue-depth", "-1"},
		{"-conn-streams", "-1"},
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

// soakArgs is a sub-second self-hosted soak: the full serve stack on a
// loopback listener, 8 connections, gated on completing at all. The latency
// and shed gates are off — this drives the assembly, not the host's speed.
var soakArgs = []string{"-soak", "-rows", "256", "-dim", "8", "-backends", "2", "-conns", "8",
	"-duration", "300ms", "-min-requests", "1", "-max-p99", "0", "-max-shed", "-1"}

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
		})
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
