package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// usage is the process's resource counters at one instant.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU time
	alloc   uint64        // cumulative heap bytes allocated
	numGC   uint32
	maxRSSk int64 // peak resident set, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSk = ru.Maxrss
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc = ms.TotalAlloc
	u.numGC = ms.NumGC
	return u
}

// resetPeakRSS restarts the kernel's peak-resident-set record, so the
// next peakRSSKiB covers only what ran in between. Where the kernel
// refuses, the peak falls back to the whole process lifetime.
func resetPeakRSS() {
	//lint:ignore errdrop best effort: peakRSSKiB falls back to ru_maxrss
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKiB reads the peak resident set (VmHWM) since the last reset,
// falling back to the lifetime peak from getrusage.
func peakRSSKiB(u usage) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return u.maxRSSk
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d kB", &kib); err == nil {
				return kib
			}
		}
	}
	return u.maxRSSk
}

// machine is the run's host description, printed beside the result so a
// run disturbed by the host (wall time moved, CPU time did not) can be
// told apart from a real change.
type machine struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	CPUQuota   string  `json:"cgroup_cpu_quota"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
}

func describeMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		CPUQuota:   cpuQuota(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	//lint:ignore errdrop read-only file; a close failure loses nothing
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuQuota reads the cgroup CPU limit: cgroup v2's cpu.max, else v1's
// quota/period pair. "none" means no quota was found.
func cpuQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, errQ := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, errP := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if errQ == nil && errP == nil {
		return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
	}
	return "none"
}
