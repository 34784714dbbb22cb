package frontdoor

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// small is a stack that builds in milliseconds: two scan backends over a
// 64×4 table.
func small() Config {
	c := Defaults()
	c.Technique, c.Rows, c.Dim, c.Backends = "scan", 64, 4, 2
	return c
}

// TestStartFailuresLeaveNothingRunning: every way Start can fail returns an
// error and leaves no goroutine behind — the planner stopped, the group's
// workers gone, no listener serving.
func TestStartFailuresLeaveNothingRunning(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	corrupt := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}

	// Warm the baseline: a planner-managed stack that starts and drains
	// leaves behind whatever the runtime and the packages start once. Its
	// own planner loop and serve goroutines exit asynchronously, so the
	// baseline is taken once they have.
	cold := runtime.NumGoroutine()
	warm := small()
	warm.Plan = true
	st, err := Start(warm, "127.0.0.1:0", nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(0, io.Discard); err != nil {
		t.Fatal(err)
	}
	baseline := settle(cold)

	for _, tc := range []struct {
		name   string
		edit   func(*Config)
		listen string
	}{
		{"listen in use", func(*Config) {}, busy.Addr().String()},
		{"listen in use, plan", func(c *Config) { c.Plan = true }, busy.Addr().String()},
		{"corrupt plan file", func(c *Config) { c.Plan, c.PlanFile = true, corrupt }, "127.0.0.1:0"},
		{"unknown technique", func(c *Config) { c.Technique = "no-such-technique" }, "127.0.0.1:0"},
	} {
		// No subtests: each would add its own goroutine to the count.
		cfg := small()
		tc.edit(&cfg)
		st, err := Start(cfg, tc.listen, nil, io.Discard)
		if err == nil {
			_ = st.Drain(0, io.Discard)
			t.Errorf("%s: Start succeeded, want an error", tc.name)
			continue
		}
		if st != nil {
			t.Errorf("%s: Start returned a stack with error %v", tc.name, err)
		}
		if n := settle(baseline); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after a failed Start, %d before (%v):\n%s",
				tc.name, n, baseline, err, buf[:runtime.Stack(buf, true)])
		}
	}
}

// settle waits up to a second for the goroutine count to fall to want and
// returns the last count: a stopped planner's loop and a closed listener's
// goroutines exit asynchronously.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}
