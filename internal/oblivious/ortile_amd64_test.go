//go:build amd64 && !purego

package oblivious

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestDetectAVX2MatchesCPUInfo requires the CPUID/XGETBV detection to agree
// with the avx2 flag Linux reports, which the kernel also clears when it
// does not save YMM state.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := false
	for _, f := range flags {
		want = want || f == "avx2"
	}
	if hasAVX2 != want || detectAVX2() != want {
		t.Fatalf("hasAVX2 = %v, detectAVX2() = %v; /proc/cpuinfo avx2 = %v", hasAVX2, detectAVX2(), want)
	}
}
