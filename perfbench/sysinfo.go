package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/benchmarks"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the resident-set high-water mark (VmHWM) from
// the current resident set. Where the kernel refuses, VmHWM stays the
// high-water mark since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// runRecord describes the host a run was taken on, so a run taken
// under load can be recognised afterwards.
type runRecord struct {
	Phase      string `json:"phase"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LoadAvg    string `json:"loadavg"`
	// CPUStat is the aggregate "cpu" line of /proc/stat; its eighth
	// field is the time the hypervisor stole from this host.
	CPUStat string `json:"proc_stat_cpu"`
	// CalibMs is the best of three timings of a fixed program-independent
	// workload (benchmarks.Calibrate, 10 iterations): the host's
	// effective speed, which drifts on a shared machine where loadavg
	// does not show it.
	CalibMs float64 `json:"calib_ms"`
}

func recordNow(phase string) runRecord {
	load, _ := os.ReadFile("/proc/loadavg")
	stat, _ := os.ReadFile("/proc/stat")
	cpu, _, _ := strings.Cut(string(stat), "\n")
	return runRecord{
		Phase:      phase,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg:    strings.TrimSpace(string(load)),
		CPUStat:    cpu,
		CalibMs:    calibrate(),
	}
}

func calibrate() float64 {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		t0 := time.Now() //golint:allow wall-clock — host speed probe for the run record
		benchmarks.Calibrate(&testing.B{N: 10})
		if d := time.Since(t0); best < 0 || d < best { //golint:allow wall-clock — host speed probe for the run record
			best = d
		}
	}
	return ms(best)
}
