package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machine is the per-core roofline measured in the same run as the
// kernels it bounds: sustainable copy bandwidth and a register-resident
// complex multiply-add rate.
type machine struct {
	streamGBs   float64
	cmacGflops  float64
	llcBytes    int64
	arrayBytes  int64 // size of each of the two copy arrays
	arrayCapped bool  // arrays smaller than 4× LLC: see streamArrayBytes
}

var (
	machineOnce sync.Once
	machineVal  machine
)

// measureMachine calibrates once per process, with copy arrays of at
// most streamCap bytes each.
func measureMachine(streamCap int64) machine {
	machineOnce.Do(func() {
		m := machine{llcBytes: llcBytes()}
		m.arrayBytes, m.arrayCapped = streamArrayBytes(m.llcBytes, streamCap)
		m.streamGBs = streamCopy(m.arrayBytes)
		m.cmacGflops = cmacRate()
		machineVal = m
	})
	return machineVal
}

func (m machine) note() string {
	capped := ""
	if m.arrayCapped {
		capped = fmt.Sprintf(" (capped below 4x LLC; the copy's working set is still %.1fx LLC, and a streaming copy misses a cache it overflows)",
			2*float64(m.arrayBytes)/float64(m.llcBytes))
	}
	return fmt.Sprintf("machine: copy over two arrays of %.0f MB each%s, LLC %.0f MB; %.2f GB/s, %.2f GF/s complex MAC per core",
		float64(m.arrayBytes)/1e6, capped, float64(m.llcBytes)/1e6, m.streamGBs, m.cmacGflops)
}

// maxStreamArray caps each copy array of a full-scale run. A virtual
// machine that reports its host's whole L3 (260 MB here) would otherwise
// have every traced run fault in 2 GiB of fresh memory, at seconds per
// GiB.
const maxStreamArray = 256 << 20

// streamArrayBytes sizes each copy array at 4× the last-level cache, so
// the copy streams from memory, up to limit.
func streamArrayBytes(llc, limit int64) (size int64, capped bool) {
	size = max(4*llc, 64<<20)
	if size > limit {
		return limit, true
	}
	return size, false
}

// streamCopy returns the best of three timed copies in GB/s, counting
// bytes read plus bytes written.
func streamCopy(bytes int64) float64 {
	n := int(bytes / 8)
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault the destination pages in before timing
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		copy(dst, src)
		if gbs := 2 * float64(bytes) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	sink = dst[n/2]
	src, dst = nil, nil
	debug.FreeOSMemory()
	return best
}

var sink float64

// cmacRate times independent complex multiply-adds held in registers:
// 8 real flops each, four accumulators so the adds do not serialise.
func cmacRate() float64 {
	const iters = 20_000_000
	a0, a1, a2, a3 := complex(1, 0), complex(0, 1), complex(1, 1), complex(-1, 1)
	w := complex(0.9999999, 0.0001)
	c := complex(1e-9, -1e-9)
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			a0 = a0*w + c
			a1 = a1*w + c
			a2 = a2*w + c
			a3 = a3*w + c
		}
		if g := 4 * 8 * float64(iters) / time.Since(t0).Seconds() / 1e9; g > best {
			best = g
		}
	}
	sink = real(a0 + a1 + a2 + a3)
	return best
}

// llcBytes reads the largest cache cpu0 reports; 32 MB when the kernel
// does not say.
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// environment is the block every result document carries.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) environment {
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), LLCBytes: llcBytes(), GitCommit: gitCommit(), Seed: seed,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves .git/HEAD by hand: the benchmark starts no
// processes, and a checkout without .git is simply "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if raw, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
