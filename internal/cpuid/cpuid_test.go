package cpuid

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestMatchesCPUInfo holds the probe to the flags Linux reports for the
// first CPU in /proc/cpuinfo, which lists avx and avx2 only where the
// CPU has them and the kernel saves the YMM state. Off amd64 both must
// be false; elsewhere without /proc/cpuinfo it skips.
func TestMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX || AVX2 {
			t.Fatalf("AVX %v, AVX2 %v on %s", AVX, AVX2, runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		f := strings.Fields(flags)
		if avx, avx2 := slices.Contains(f, "avx"), slices.Contains(f, "avx2"); AVX != avx || AVX2 != avx2 {
			t.Fatalf("probe reports AVX %v, AVX2 %v; /proc/cpuinfo lists avx %v, avx2 %v", AVX, AVX2, avx, avx2)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
