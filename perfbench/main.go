// Command perfbench is the repository's benchmark of record. Each run
// drives whole fuzzing campaigns of one named workload through
// harness.Start and harness.Resume, checks their outputs, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload arith --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: arith or wild")
	seed := flag.Int64("seed", 1, "workload seed; every campaign config is built from it")
	seconds := flag.Int("seconds", 40, "measuring time of an untraced run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/tmp", "directory for campaign outputs (created, emptied after use)")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0|1"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	printRecord(recordNow("start"))
	var res result
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		res, err = untraced(w, *seed, budget, *workdir)
	} else {
		res, err = tracedRun(w, *seed, budget, *workdir)
	}
	printRecord(recordNow("end"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		res.Correct = false
		emit(res)
		os.Exit(1)
	}
	emit(res)
}

func printRecord(r runRecord) {
	b, _ := json.Marshal(r)
	fmt.Printf("run_record %s\n", b)
}

func emit(r result) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	b, err := json.Marshal(r) // encoding/json sorts map keys
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// untraced measures one pass over the run's units. Per-task cost is
// heavy-tailed and set mostly by which seeds a campaign draws, so the
// timings are medians: of every task's wall time, and of the campaigns'
// set-up times. Unit 0 is run once more at the end; its fingerprint
// must not change.
func untraced(w workload, seed int64, budget time.Duration, workdir string) (result, error) {
	res := result{Correct: true}
	var all passStats
	var rss []float64
	n := w.units(budget)
	for k := 0; k < n; k++ {
		resetPeakRSS()
		s, err := runPass(w, w.unit(seed, k), workdir, nil)
		if err != nil {
			return res, err
		}
		rss = append(rss, peakRSSMB())
		all.add(s)
		if k == 0 {
			all.fp = s.fp
		}
		fmt.Fprintf(os.Stderr, "unit %d: tests=%d task_ms_p50=%.3f setup=%.3fs peak_rss=%.1fMiB\n",
			k, s.tests, ms(percentile(s.lat, 50)), (s.wall - s.busy).Seconds(), rss[k])
	}
	again, err := runPass(w, w.unit(seed, 0), workdir, nil)
	if err != nil {
		return res, err
	}
	if again.fp != all.fp {
		return res, fmt.Errorf("%s: result fingerprint of unit 0 changed between runs at seed %d", w.name, seed)
	}
	var setups []float64
	for _, d := range all.setups {
		setups = append(setups, d.Seconds())
	}
	res.Attempted, res.Failed = all.tasks, all.failures
	res.Metrics = map[string]metric{
		"task_ms_p50": {ms(percentile(all.lat, 50)), "ms"},
		"task_ms_p90": {ms(percentile(all.lat, 90)), "ms"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {median(rss), "MiB"},
		"bugs_found":  {float64(all.bugs), "count"},
	}
	return res, nil
}
