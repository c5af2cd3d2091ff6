package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2Detection holds the init-time CPUID/XGETBV check to the kernel's
// own report, so a detection bug fails here instead of silently running the
// portable kernel.
func TestAVX2Detection(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			if want := slices.Contains(strings.Fields(flags), "avx2"); hasAVX2 != want {
				t.Fatalf("hasAVX2 = %v, /proc/cpuinfo lists avx2: %v", hasAVX2, want)
			}
			return
		}
	}
	t.Fatal("/proc/cpuinfo has no flags line")
}
