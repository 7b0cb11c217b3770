//go:build linux && amd64 && !purego

package core

import (
	"os"
	"strings"
	"testing"
)

// TestConvolveKernelFollowsCPUInfo: Linux lists a SIMD extension in
// /proc/cpuinfo only when the CPU has it and the kernel saves its
// register state, the two things the dispatch asks CPUID and XGETBV.
// The kernel tier must be the highest those flags allow; a wrong CPUID
// bit or XCR0 mask would otherwise drop the host to a lower tier while
// every bit-identity test stays green.
func TestConvolveKernelFollowsCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := "go"
	switch {
	case flags["avx512f"] && flags["avx2"] && flags["fma"]:
		want = "avx512"
	case flags["avx2"] && flags["fma"]:
		want = "avx2"
	}
	if got := ConvolveKernel(); got != want {
		t.Errorf("ConvolveKernel() = %q, but /proc/cpuinfo lists avx512f %v, avx2 %v, fma %v: want %q",
			got, flags["avx512f"], flags["avx2"], flags["fma"], want)
	}
}
