package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// counterTotals sums the program's own yy_* counters over the campaigns
// of the traced runs.
type counterTotals struct {
	tracker *telemetry.Tracker
	snap    telemetry.Snapshot
	tests   int
	// fuel holds the per-task fuel of every tested task, from the JSONL
	// trace.
	fuel     []int64
	timeouts int
}

func (c *counterTotals) add(cr campaignRun, trace []byte) error {
	c.tracker.Merge(cr.snap)
	c.tests += cr.res.Tests
	c.timeouts += cr.res.Timeouts
	recs, err := harness.DecodeTrace(bytes.NewReader(trace))
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Status == "tested" {
			c.fuel = append(c.fuel, r.FuelSpent)
		}
	}
	return nil
}

func (c *counterTotals) perTest(name string) float64 {
	return float64(c.snap.Counter(name)) / float64(c.tests)
}

func (c *counterTotals) ratio(hits, misses string) float64 {
	h, m := c.snap.Counter(hits), c.snap.Counter(misses)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// counterMetrics are the per-layer metrics computed from the program's
// own counters and JSONL trace. They are exact for a seed.
var counterMetrics = []string{
	"solver.fuel_per_test", "solver.task_fuel_p99", "solver.timeout_share",
	"sat.decisions_per_test", "sat.conflicts_per_test",
	"simplex.pivots_per_test", "simplex.tableau_warm_hit_ratio",
	"arith.bnb_nodes_per_test", "arith.interval_steps_per_test",
	"strings.dfs_steps_per_test", "strings.warm_hit_ratio",
	"regex.derivatives_per_test", "rewrite.memo_hit_ratio",
	"backend.checks_per_test", "oracle.pairs", "fail_share",
}

// memDelta is the allocation work done during a traced pass.
type memDelta struct{ bytes, mallocs, gcs uint64 }

// tracedPass runs the campaigns straight through with the program's
// telemetry tracker and JSONL trace attached, under a CPU profile
// written to profPath, and checks their outputs.
func tracedPass(w workload, cs []campaign, workdir, profPath string) (passStats, []*bytes.Buffer, memDelta, error) {
	var traces []*bytes.Buffer
	opts := func(campaign) runOpts {
		buf := &bytes.Buffer{}
		traces = append(traces, buf)
		return runOpts{telemetry: telemetry.NewTracker(), trace: buf, pauseAt: -1}
	}
	prof, err := os.Create(profPath)
	if err != nil {
		return passStats{}, nil, memDelta{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return passStats{}, nil, memDelta{}, err
	}
	s, err := runRep(w, cs, workdir, opts)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	defer s.cleanup()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.checkArtifacts()
	}
	md := memDelta{ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs, uint64(ms1.NumGC - ms0.NumGC)}
	return s, traces, md, err
}

// tracedRun produces the per-layer metrics of a workload from the first
// quarter of an untraced run's units. Each unit runs
//
//  1. untraced, as in an untraced run (on wild: paused and resumed);
//  2. on wild, untraced and straight through, the base of
//     resume.overhead_s;
//  3. traced and straight through (tracedPass);
//
// with the traced run first on every other unit, so host-speed drift
// and warm-up fall on both sides of trace_overhead. Every run of a unit
// must reproduce the same result fingerprint. The span replayer then
// replays unit 0.
func tracedRun(w workload, seed int64, budget time.Duration, workdir string) (result, error) {
	res := result{Correct: true}
	m := map[string]metric{}
	var ref, base, tr passStats // base: the untraced straight runs
	var traces []*bytes.Buffer
	var profiles []string
	defer func() {
		for _, p := range profiles {
			os.Remove(p)
		}
	}()
	var mem memDelta
	for k := 0; k < (w.units(budget)+3)/4; k++ {
		cs := w.unit(seed, k)
		r, err := runPass(w, cs, workdir, nil)
		if err != nil {
			return res, err
		}
		straight := func() (passStats, error) {
			if !w.resume {
				return r, nil
			}
			return runPass(w, cs, workdir, func(campaign) runOpts { return runOpts{pauseAt: -1} })
		}
		traced := func() (passStats, error) {
			p := filepath.Join(workdir, fmt.Sprintf("cpu-%s-%d-%d.pprof", w.name, os.Getpid(), k))
			profiles = append(profiles, p)
			t, bufs, md, err := tracedPass(w, cs, workdir, p)
			traces = append(traces, bufs...)
			mem.bytes += md.bytes
			mem.mallocs += md.mallocs
			mem.gcs += md.gcs
			return t, err
		}
		var b, t passStats
		if k%2 == 0 {
			if b, err = straight(); err == nil {
				t, err = traced()
			}
		} else {
			if t, err = traced(); err == nil {
				b, err = straight()
			}
		}
		if err != nil {
			return res, err
		}
		if t.fp != r.fp || b.fp != r.fp {
			return res, fmt.Errorf("%s unit %d: the traced straight run, the untraced straight run and the untraced run (paused and resumed on wild) disagree on the result fingerprint", w.name, k)
		}
		ref.add(r)
		base.add(b)
		tr.add(t)
	}
	counters := counterTotals{tracker: telemetry.NewTracker()}
	for i, cr := range tr.runs {
		if err := counters.add(cr, traces[i].Bytes()); err != nil {
			return res, err
		}
	}
	counters.snap = counters.tracker.Snapshot()

	// Durability metrics: zero on workloads that do not pause.
	var encode, decode time.Duration
	var cpBytes, bundles, checkpoints int
	for _, cr := range ref.runs {
		if len(cr.legs) > 1 {
			checkpoints++
			encode += cr.encode
			decode += cr.decode
			cpBytes += cr.cpBytes
		}
		bundles += len(cr.res.Artifacts)
	}
	resumeOverhead := (ref.wall - base.wall).Seconds()
	perCP := func(x float64) float64 {
		if checkpoints == 0 {
			return 0
		}
		return x / float64(checkpoints)
	}
	m["checkpoint.encode_ms"] = metric{perCP(ms(encode)), "ms"}
	m["checkpoint.decode_ms"] = metric{perCP(ms(decode)), "ms"}
	m["checkpoint.bytes"] = metric{perCP(float64(cpBytes)), "bytes"}
	m["resume.overhead_s"] = metric{resumeOverhead, "s"}
	m["artifacts.bundles"] = metric{float64(bundles), "count"}
	replayPer := 0.0
	if bundles > 0 {
		replayPer = ms(ref.replay) / float64(bundles)
	}
	m["artifacts.replay_ms"] = metric{replayPer, "ms"}

	// Program counters, exact for a seed.
	c := &counters
	m["solver.fuel_per_test"] = metric{c.perTest("yy_solve_fuel_spent_total"), "steps"}
	m["solver.task_fuel_p99"] = metric{float64(percentile(c.fuel, 99)), "steps"}
	m["solver.timeout_share"] = metric{float64(c.timeouts) / float64(c.tests), "ratio"}
	m["sat.decisions_per_test"] = metric{c.perTest("yy_cdcl_decisions_total"), "count"}
	m["sat.conflicts_per_test"] = metric{c.perTest("yy_cdcl_conflicts_total"), "count"}
	m["simplex.pivots_per_test"] = metric{c.perTest("yy_simplex_pivots_total"), "count"}
	m["simplex.tableau_warm_hit_ratio"] = metric{c.ratio("yy_tableau_warm_hits_total", "yy_tableau_warm_misses_total"), "ratio"}
	m["arith.bnb_nodes_per_test"] = metric{c.perTest("yy_arith_bnb_nodes_total"), "count"}
	m["arith.interval_steps_per_test"] = metric{c.perTest("yy_arith_interval_steps_total"), "count"}
	m["strings.dfs_steps_per_test"] = metric{c.perTest("yy_strings_dfs_steps_total"), "count"}
	m["strings.warm_hit_ratio"] = metric{c.ratio("yy_warm_eval_hits_total", "yy_warm_eval_misses_total"), "ratio"}
	m["regex.derivatives_per_test"] = metric{c.perTest("yy_regex_derivatives_total"), "count"}
	m["rewrite.memo_hit_ratio"] = metric{c.ratio("yy_rewrite_memo_hits_total", "yy_rewrite_memo_misses_total"), "ratio"}
	m["backend.checks_per_test"] = metric{c.perTest("yy_backend_checks_total"), "count"}
	m["oracle.pairs"] = metric{float64(c.snap.Counter("yy_oracle_pairs_total")), "count"}
	m["fail_share"] = metric{float64(ref.failures) / float64(ref.tasks), "ratio"}

	// Throughput and the task-time tail of the untraced runs: means and
	// high percentiles, which the heavy tail makes too seed-dependent
	// to bound (README.md, "Measurement").
	m["tests_per_s"] = metric{ref.testsPerSec(), "1/s"}
	m["cpu_ms_per_test"] = metric{ms(ref.cpuTotal()) / float64(ref.tests), "ms"}
	m["task_ms_p99"] = metric{ms(percentile(ref.lat, 99)), "ms"}

	// Runtime costs of the traced runs.
	m["alloc_bytes_per_test"] = metric{float64(mem.bytes) / float64(tr.tests), "bytes"}
	m["mallocs_per_test"] = metric{float64(mem.mallocs) / float64(tr.tests), "count"}
	m["gc_cycles"] = metric{float64(mem.gcs), "count"}
	m["trace_overhead"] = metric{base.testsPerSec()/tr.testsPerSec() - 1, "ratio"}

	shares, err := cpuShares(profiles)
	if err != nil {
		return res, err
	}
	for _, p := range append(append([]string(nil), cpuPackages...), "gc", "other") {
		m["cpu."+p] = metric{shares[p], "ratio"}
	}

	// Spans from the replayer's replay of unit 0, whose campaigns are the
	// first of each pass.
	var wantTests int
	var baseCPU time.Duration
	for i := range w.suts {
		wantTests += base.runs[i].res.Tests
		baseCPU += base.cpu[i]
	}
	d, layers, err := runReplay(w, w.unitSeed(seed, 0), wantTests, false)
	if err != nil {
		return res, err
	}
	var layerTime time.Duration
	for _, l := range spanLayers {
		st := layers[l]
		m[l+".calls"] = metric{float64(st.calls), "count"}
		m[l+".busy_ms"] = metric{ms(st.busy), "ms"}
		m[l+".fails"] = metric{float64(st.fails), "count"}
		if l != layerSmtlib {
			// Campaign tasks never print and reparse their scripts; the
			// replayer does it only to cost the smtlib layer.
			layerTime += st.busy
		}
	}
	m["solve.p50_ms"] = metric{ms(percentile(layers[layerSolve].durs, 50)), "ms"}
	m["solve.p99_ms"] = metric{ms(percentile(layers[layerSolve].durs, 99)), "ms"}
	baseCPUPerTest := ms(baseCPU) / float64(wantTests)
	m["harness.overhead_share"] = metric{1 - ms(layerTime)/float64(d.tests)/baseCPUPerTest, "ratio"}

	res.Attempted = ref.tasks + tr.tasks
	res.Failed = ref.failures + tr.failures
	if w.resume {
		res.Attempted += base.tasks
		res.Failed += base.failures
	}
	res.Metrics = m
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
