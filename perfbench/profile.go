package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuPackages are the repro/internal packages a CPU sample can be
// charged to, by the last element of their import path. Samples whose
// innermost module frame lies in another package (fuel, bugdb, ...)
// are charged to the next listed package up the stack.
var cpuPackages = []string{"gen", "core", "analysis", "mutate", "smtlib", "ast", "solver", "sat",
	"simplex", "arith", "strings", "regex", "eval", "harness", "backend", "telemetry"}

// gcRoots are the runtime functions at the root of background GC work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares reads CPU profiles with `go tool pprof -traces` (which
// merges them) and
// returns the share of sampled CPU time per package, plus "gc" for
// background collector work and "other" for the rest. Each sample is
// charged to its innermost repro/internal frame, so runtime work such
// as malloc and map access lands on the module code that caused it.
func cpuShares(profiles []string) (map[string]float64, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	listed := map[string]bool{}
	for _, p := range cpuPackages {
		listed[p] = true
	}
	charged := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 && value > 0 {
			charged[chargeOf(frames, listed)] += value
			total += value
		}
		value, frames = 0, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // header lines (File:, Type:, ...)
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		if len(frames) > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profiles %v hold no samples", profiles)
	}
	shares := map[string]float64{}
	for _, p := range append(append([]string(nil), cpuPackages...), "gc", "other") {
		shares[p] = float64(charged[p]) / float64(total)
	}
	return shares, nil
}

// chargeOf names the package a sample's stack (innermost frame first)
// is charged to.
func chargeOf(frames []string, listed map[string]bool) string {
	for _, f := range frames {
		pkg, ok := strings.CutPrefix(funcPackage(f), "repro/internal/")
		if !ok {
			continue
		}
		last := pkg[strings.LastIndex(pkg, "/")+1:]
		if listed[last] {
			return last
		}
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if f == root {
				return "gc"
			}
		}
	}
	return "other"
}

// funcPackage is the import path of a symbolized Go function name such
// as "repro/internal/solver/strings.(*checker).dfs".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
