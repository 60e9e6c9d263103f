package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkFile mirrors the metric lists of ../BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.scaled(6, 3)
}

// tracedSmall runs the traced measurement of a reduced workload.
func tracedSmall(t *testing.T, name string, seed int64) map[string]metric {
	t.Helper()
	res, err := tracedRun(small(t, name), seed, time.Second, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Metrics
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every declared metric name, and that the
// traced run emits exactly the declared per-layer metrics with their
// declared units.
func TestMetricNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	got := tracedSmall(t, "arith", 5)
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit, ok := want[n]
		switch {
		case !ok:
			t.Errorf("traced run emits undeclared metric %q", n)
		case unit != got[n].Unit:
			t.Errorf("metric %q: unit %q, declared %q", n, got[n].Unit, unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("traced run emits %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
}

// TestCountersRepeat checks that every program-counter metric repeats
// exactly across two runs at one seed.
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"arith", "wild"} {
		a, b := tracedSmall(t, name, 9), tracedSmall(t, name, 9)
		for _, n := range counterMetrics {
			if a[n].Value != b[n].Value {
				t.Errorf("%s: %s = %v then %v", name, n, a[n].Value, b[n].Value)
			}
		}
	}
}

// TestSpanSelfTimes checks that the self times of a task's spans sum to
// the task span, on every workload's mix.
func TestSpanSelfTimes(t *testing.T) {
	for _, w := range workloads {
		d, _, err := runReplay(small(t, w.name), 3, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		self := d.tr.selfTimes()
		sums := map[int]time.Duration{}
		for i, s := range d.tr.spans {
			sums[s.task] += self[i]
		}
		for _, s := range d.tr.spans {
			if s.parent < 0 && sums[s.task] != s.dur() {
				t.Fatalf("%s: task %d self times sum to %v, task span %v", w.name, s.task, sums[s.task], s.dur())
			}
		}
	}
}

// TestWorkloadSeparation checks the layer boundaries the workloads are
// chosen for: arith does no string work and no cross-checks; wild is the
// only workload with backends and metamorphic variants.
func TestWorkloadSeparation(t *testing.T) {
	arith := tracedSmall(t, "arith", 4)
	for _, n := range []string{"strings.dfs_steps_per_test", "backend.calls", "variant.calls", "backend.checks_per_test", "oracle.pairs"} {
		if arith[n].Value != 0 {
			t.Errorf("arith: %s = %v, want 0", n, arith[n].Value)
		}
	}
	if v := arith["cpu.strings"].Value; v > 0.02 {
		t.Errorf("arith: cpu.strings = %v, want near zero", v)
	}
	wild := tracedSmall(t, "wild", 4)
	for _, n := range []string{"backend.calls", "variant.calls", "backend.checks_per_test", "checkpoint.bytes"} {
		if wild[n].Value == 0 {
			t.Errorf("wild: %s = 0, want > 0", n)
		}
	}
}

// TestSensitivityNamesGate injects an extra analysis.Gate pass per
// derivation into the replayer. gate.busy_ms must rise beyond its spread
// and no other layer's busy_ms may move beyond its spread. A layer moves
// when the medians of the baseline and injected rounds differ by more
// than the wider of the two samples' interquartile ranges and by more
// than 10% of the baseline median.
func TestSensitivityNamesGate(t *testing.T) {
	w, err := lookupWorkload("arith")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(80, 6)
	w.suts = w.suts[:1]
	const rounds = 7
	busy := map[bool]map[string][]float64{false: {}, true: {}}
	for r := 0; r < 2*rounds; r++ {
		extra := r%2 == 1
		_, layers, err := runReplay(w, 2, 0, extra)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range spanLayers {
			busy[extra][l] = append(busy[extra][l], ms(layers[l].busy))
		}
	}
	var moved []string
	for _, l := range spanLayers {
		base, hook := busy[false][l], busy[true][l]
		diff := median(hook) - median(base)
		if diff < 0 {
			diff = -diff
		}
		if diff > iqr(base) && diff > iqr(hook) && diff > 0.1*median(base) {
			moved = append(moved, l)
		}
	}
	if len(moved) != 1 || moved[0] != layerGate || median(busy[true][layerGate]) <= median(busy[false][layerGate]) {
		t.Fatalf("layers moved beyond their spread: %v, want only %q rising (busy_ms %v)", moved, layerGate, busy)
	}
}

func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[3*len(s)/4] - s[len(s)/4]
}
