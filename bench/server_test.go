package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildSecembd compiles the real server once per test binary.
func buildSecembd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "secembd")
	if out, err := exec.Command("go", "build", "-o", bin, "secemb/cmd/secembd").CombinedOutput(); err != nil {
		t.Fatalf("go build secembd: %v\n%s", err, out)
	}
	return bin
}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

func TestServerLifecycle(t *testing.T) {
	bin := buildSecembd(t)
	w := &workload{Technique: "scanb", Rows: 64, InFlight: 1, Batch: []batchShare{{2, 1}}}
	or, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("graceful", func(t *testing.T) {
		srv, clients, took, err := bringUp(context.Background(), bin, w, or)
		if err != nil {
			t.Fatal(err)
		}
		defer closeClients(clients)
		if took <= 0 || took > 30*time.Second {
			t.Errorf("setup took %v", took)
		}
		if cpu, err := srv.cpuTime(); err != nil || cpu < 0 {
			t.Errorf("cpuTime = %v, %v", cpu, err)
		}
		if rss, err := srv.rssPeakMiB(); err != nil || rss < 1 {
			t.Errorf("rssPeakMiB = %v, %v", rss, err)
		}
		drained, err := srv.stop(10 * time.Second)
		if err != nil {
			t.Fatalf("SIGTERM did not end in exit 0 and a drained line: %v", err)
		}
		if drained.served != 1 || drained.errors != 0 || drained.shed != 0 {
			t.Errorf("drained line says %+v, want the one Embed of bringUp", drained)
		}
		if alive(srv.cmd.Process.Pid) {
			t.Error("secembd still running after stop")
		}
	})

	t.Run("cancelled context leaves no orphan", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		srv, clients, _, err := bringUp(ctx, bin, w, or)
		if err != nil {
			t.Fatal(err)
		}
		defer closeClients(clients)
		cancel()
		select {
		case <-srv.done:
		case <-time.After(5 * time.Second):
			srv.kill()
			t.Fatal("secembd outlived its cancelled context")
		}
		if alive(srv.cmd.Process.Pid) {
			t.Error("secembd still running after its context was cancelled")
		}
	})

	t.Run("never healthy", func(t *testing.T) {
		srv, err := startServer(context.Background(), bin, []string{"-technique", "no-such-technique"})
		if err != nil {
			t.Fatal(err)
		}
		cs := newClients(srv.addr, 1)
		defer closeClients(cs)
		err = srv.waitHealthy(context.Background(), cs[0], 10*time.Second)
		if err == nil || !strings.Contains(err.Error(), "exited before becoming healthy") {
			t.Errorf("waitHealthy on a server that exits at once: %v", err)
		}
	})
}

func TestHungServerIsKilledAndFailsTheRun(t *testing.T) {
	script := filepath.Join(t.TempDir(), "deaf")
	if err := os.WriteFile(script, []byte("#!/bin/sh\ntrap '' TERM\nwhile :; do sleep 1; done\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(context.Background(), script, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the shell install its trap
	if _, err := srv.stop(300 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "ignored SIGTERM") {
		t.Errorf("stop on a server that ignores SIGTERM: %v", err)
	}
	if alive(srv.cmd.Process.Pid) {
		t.Error("hung server was not killed")
	}
}

func TestParseProcAndDrainLines(t *testing.T) {
	cpu, err := parseStatCPU("4242 (sec embd) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 123 45 0 0 20 0 7 0 100 200 300")
	if err != nil || cpu != 1680*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 1.68s", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	d, err := parseDrained("secembd: draining (grace 100ms)\nsecembd: drained; served=93046 errors=2 shed=1 p99=1ms\n")
	if err != nil || d != (drainStats{93046, 2, 1}) {
		t.Errorf("parseDrained = %+v, %v", d, err)
	}
	if _, err := parseDrained("secembd: draining\n"); err == nil {
		t.Error("parseDrained accepted output without a drained line")
	}
}
