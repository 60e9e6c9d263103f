package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/mutate"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// The span replayer replays a workload's task mix through the public entry
// point of each layer, one seed family at a time on one solver per SUT,
// and records a span around every call. Spans live in memory and are
// folded into per-layer metrics when the replay ends.

// Layers, named after the modules whose entry points the spans wrap.
const (
	layerGen        = "gen"         // gen.Generator.Sat / Unsat
	layerVet        = "vet"         // harness.RunSolver on a candidate seed
	layerFuse       = "fuse"        // core.Fuse, minus its internal gate
	layerGate       = "gate"        // analysis.Gate
	layerMutate     = "mutate"      // mutate.Mutate / mutate.Wild, minus the gate
	layerVariant    = "variant"     // mutate.DeriveVariant, minus the gate
	layerSmtlib     = "smtlib"      // smtlib.Print + smtlib.ParseScript
	layerSolve      = "solve"       // harness.RunSolver on the SUT
	layerModelCheck = "model_check" // harness.ValidateModel
	layerBackend    = "backend"     // backend.Backend.Check
	layerTask       = "task"        // the root span of one task
)

// spanLayers lists the measured layers in report order.
var spanLayers = []string{layerGen, layerVet, layerFuse, layerGate, layerMutate, layerVariant,
	layerSmtlib, layerSolve, layerModelCheck, layerBackend}

// span is one timed call. Every span of a task carries the task's id;
// non-root spans name the root span as their parent.
type span struct {
	layer      string
	task       int
	parent     int // index into tracer.spans; -1 for a root span
	start, end time.Duration
	failed     bool
	// gateOf, on a gate span, is the index of the derivation span
	// (fuse, mutate or variant) whose internal gate it re-runs; -1 for
	// an extra gate pass.
	gateOf int
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans relative to its creation time.
type tracer struct {
	t0    time.Time
	spans []span
	task  int // id of the task being recorded
	root  int // index of the open root span
	// extraGate makes every derivation run analysis.Gate a second time:
	// the sensitivity self-test's injected extra pass.
	extraGate bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), root: -1} //golint:allow wall-clock — span clock origin
}

func (t *tracer) now() time.Duration {
	return time.Since(t.t0) //golint:allow wall-clock — span timestamps
}

// begin opens a new task's root span.
func (t *tracer) begin() {
	t.task++
	t.root = len(t.spans)
	t.spans = append(t.spans, span{layer: layerTask, task: t.task, parent: -1, start: t.now(), gateOf: -1})
}

// finish closes the open root span.
func (t *tracer) finish() {
	t.spans[t.root].end = t.now()
	t.root = -1
}

// call times fn as a child span of the open task and returns its index.
func (t *tracer) call(layer string, fn func() bool) int {
	s := span{layer: layer, task: t.task, parent: t.root, start: t.now(), gateOf: -1}
	s.failed = !fn()
	s.end = t.now()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// gate re-runs the gate a derivation ran internally, as its own span;
// with extraGate set it runs it once more.
func (t *tracer) gate(of int, sc *smtlib.Script, meta *analysis.FusionMeta) {
	i := t.call(layerGate, func() bool { return analysis.Gate(sc, meta) == nil })
	t.spans[i].gateOf = of
	if t.extraGate {
		t.call(layerGate, func() bool { return analysis.Gate(sc, meta) == nil })
	}
}

// replayer replays one campaign per SUT of a workload: the same corpus
// slots, tasks and seed families the harness runs for that campaign
// config, so the spans describe the measured campaigns' own tasks.
type replayer struct {
	w     workload
	seed  int64 // campaign seed
	iters int   // tasks per logic
	tr    *tracer
	// tests counts primary test scripts solved, the analogue of
	// Result.Tests.
	tests int
	// roundTripErrs counts scripts whose printed form did not reparse to
	// the same text.
	roundTripErrs int
}

// The stream derivation below mirrors the harness's (harness.go:
// mix64, hashName, poolSeed, taskSeed, metaSeed), which is a stable part
// of the campaign contract: reproducer bundles replay from these
// coordinates. runReplay checks the replay against the campaign's test
// count, so a change on either side fails loudly.
const (
	seedDomainPool uint64 = 0x706f6f6c
	seedDomainTask uint64 = 0x7461736b
	seedDomainMeta uint64 = 0x6d657461
)

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func poolSeed(seed int64, logic string, slot int, status core.Status) int64 {
	h := uint64(seed) ^ hashName(logic) ^ seedDomainPool
	idx := uint64(slot) << 1
	if status == core.StatusUnsat {
		idx |= 1
	}
	return int64(mix64(mix64(h) + idx*0x9e3779b97f4a7c15))
}

func streamSeed(seed int64, logic string, domain uint64, iter int) int64 {
	h := uint64(seed) ^ hashName(logic) ^ domain
	return int64(mix64(mix64(h) + uint64(iter)*0x9e3779b97f4a7c15))
}

// replay runs the campaign for one SUT: per logic, the corpus, then the
// tasks grouped into seed families.
func (d *replayer) replay(sut string) error {
	defects, err := bugdb.DefectsIn(bugdb.SUT(sut), "trunk")
	if err != nil {
		return err
	}
	s := solver.New(solver.Config{Defects: defects, Limits: solver.DefaultLimits()})
	var bks []backend.Backend
	for _, b := range d.w.backends {
		bk, err := harness.SimBackendSpec(bugdb.SUT(b.SUT), b.Release, 0).New()
		if err != nil {
			return err
		}
		bks = append(bks, bk)
	}
	for _, logic := range d.w.logics {
		p, err := d.corpus(s, logic)
		if err != nil {
			return err
		}
		d.tasks(s, bks, p, logic)
	}
	return nil
}

type pool struct{ sat, unsat []*core.Seed }

func (p pool) pick(status core.Status, rng *rand.Rand) *core.Seed {
	if status == core.StatusSat {
		return p.sat[rng.Intn(len(p.sat))]
	}
	return p.unsat[rng.Intn(len(p.unsat))]
}

// corpus generates and vets the seed pool of one logic the way the
// harness does: up to ten candidates per slot, keeping the first the
// SUT does not misbehave on, on a solver reset per slot.
func (d *replayer) corpus(s *solver.Solver, logic string) (pool, error) {
	p := pool{sat: make([]*core.Seed, d.w.pool), unsat: make([]*core.Seed, d.w.pool)}
	for j := 0; j < 2*d.w.pool; j++ {
		slot, status := j>>1, core.StatusSat
		if j&1 == 1 {
			status = core.StatusUnsat
		}
		g, err := gen.New(gen.Logic(logic), poolSeed(d.seed, logic, slot, status))
		if err != nil {
			return p, err
		}
		s.ResetWarm()
		d.tr.begin()
		var seed *core.Seed
		for try := 0; try < 10 && seed == nil; try++ {
			var cand *core.Seed
			d.tr.call(layerGen, func() bool { cand = g.Generate(status); return true })
			d.tr.call(layerVet, func() bool {
				run := harness.RunSolver(s, cand.Script)
				ok := !run.Crashed && !run.InternalFault && run.Result != solver.ResTimeout &&
					(run.Result == solver.ResUnknown || (run.Result == solver.ResSat) == (status == core.StatusSat))
				if ok {
					seed = cand
				}
				return ok
			})
		}
		if seed == nil {
			d.tr.call(layerGen, func() bool { seed = g.Generate(status); return true })
		}
		d.tr.finish()
		if status == core.StatusSat {
			p.sat[slot] = seed
		} else {
			p.unsat[slot] = seed
		}
	}
	return p, nil
}

// family identifies the seeds a task derives from, exactly as the
// harness batches tasks: same oracle coin, same pool pick(s).
type family struct {
	mutation bool
	oracle   core.Status
	s1, s2   int
}

func (d *replayer) isMutation(iter int) bool {
	switch d.w.mode {
	case "mutate", "wild":
		return true
	case "both":
		return iter%2 == 1
	}
	return false
}

// taskRNG opens a task's stream and draws its oracle coin.
func (d *replayer) taskRNG(logic string, iter int) (*rand.Rand, core.Status) {
	rng := rand.New(rand.NewSource(streamSeed(d.seed, logic, seedDomainTask, iter)))
	oracle := core.StatusSat
	if rng.Intn(2) == 1 {
		oracle = core.StatusUnsat
	}
	return rng, oracle
}

// tasks groups the logic's tasks into seed families (ordered by first
// member) and runs each family on a freshly reset solver.
func (d *replayer) tasks(s *solver.Solver, bks []backend.Backend, p pool, logic string) {
	index := map[family]int{}
	var fams [][]int
	for iter := 0; iter < d.iters; iter++ {
		rng, oracle := d.taskRNG(logic, iter)
		f := family{mutation: d.isMutation(iter), oracle: oracle, s1: rng.Intn(d.w.pool), s2: -1}
		if !f.mutation {
			f.s2 = rng.Intn(d.w.pool)
		}
		fi, ok := index[f]
		if !ok {
			fi = len(fams)
			index[f] = fi
			fams = append(fams, nil)
		}
		fams[fi] = append(fams[fi], iter)
	}
	for _, fam := range fams {
		s.ResetWarm()
		for _, b := range bks {
			if r, ok := b.(backend.Resetter); ok {
				r.ResetWarm()
			}
		}
		for _, iter := range fam {
			d.task(s, bks, p, logic, iter)
		}
	}
}

// task derives, gates, round-trips and solves one test, then applies
// the workload's oracles to it.
func (d *replayer) task(s *solver.Solver, bks []backend.Backend, p pool, logic string, iter int) {
	d.tr.begin()
	defer d.tr.finish()
	rng, oracle := d.taskRNG(logic, iter)
	var script *smtlib.Script
	if d.isMutation(iter) {
		s1 := p.pick(oracle, rng)
		var m *mutate.Mutant
		i := d.tr.call(layerMutate, func() bool {
			var err error
			if d.w.mode == "wild" {
				m, err = mutate.Wild(s1, rng, mutate.Options{})
			} else {
				m, err = mutate.Mutate(s1, rng, mutate.Options{})
			}
			return err == nil
		})
		if m == nil {
			return
		}
		d.tr.gate(i, m.Script, nil)
		script, oracle = m.Script, m.Oracle
	} else {
		s1, s2 := p.pick(oracle, rng), p.pick(oracle, rng)
		var f *core.Fused
		i := d.tr.call(layerFuse, func() bool {
			var err error
			f, err = core.Fuse(s1, s2, rng, core.Options{})
			return err == nil
		})
		if f == nil {
			return
		}
		d.tr.gate(i, f.Script, fusionMeta(f))
		script, oracle = f.Script, f.Oracle
	}
	d.roundTrip(script)
	run := d.solve(s, script)
	d.tests++
	d.modelCheck(script, oracle, run)
	d.check(bks, script)
	if oracle != core.StatusUnknown || (d.w.oracle != "metamorphic" && d.w.oracle != "auto") {
		return
	}
	vrng := rand.New(rand.NewSource(streamSeed(d.seed, logic, seedDomainMeta, iter)))
	var v *mutate.Variant
	i := d.tr.call(layerVariant, func() bool {
		var err error
		v, err = mutate.DeriveVariant(script, vrng, mutate.Options{})
		return err == nil
	})
	if v == nil {
		return
	}
	d.tr.gate(i, v.Script, nil)
	d.roundTrip(v.Script)
	d.solve(s, v.Script)
	d.check(bks, v.Script)
}

// fusionMeta rebuilds the gate metadata core.Fuse checks its output
// against. The ancestors' renamed variable sets are not exported; the
// disjointness check they feed is a set lookup per variable and does
// not change the pass's cost class.
func fusionMeta(f *core.Fused) *analysis.FusionMeta {
	meta := &analysis.FusionMeta{
		Mode:            f.Mode.String(),
		WantConstraints: f.Mode == core.ModeUnsatDisj || f.Mode == core.ModeMixedUnsatConj,
	}
	for _, tr := range f.Triplets {
		meta.Triplets = append(meta.Triplets, analysis.FusionTriplet{Z: tr.Z, X: tr.X, Y: tr.Y, Sort: tr.Sort})
	}
	return meta
}

// roundTrip prints a script and parses it back; the reprint must match.
func (d *replayer) roundTrip(sc *smtlib.Script) {
	d.tr.call(layerSmtlib, func() bool {
		text := smtlib.Print(sc)
		back, err := smtlib.ParseScript(text)
		if err != nil || smtlib.Print(back) != text {
			d.roundTripErrs++
			return false
		}
		return true
	})
}

// solve runs the SUT; a run without a definite verdict counts as failed.
func (d *replayer) solve(s *solver.Solver, sc *smtlib.Script) harness.RunResult {
	var run harness.RunResult
	d.tr.call(layerSolve, func() bool {
		run = harness.RunSolver(s, sc)
		return !run.Crashed && !run.InternalFault && (run.Result == solver.ResSat || run.Result == solver.ResUnsat)
	})
	return run
}

// modelCheck validates a sat model the way the campaign's
// model-validation oracle does: when the verdict does not contradict
// the oracle.
func (d *replayer) modelCheck(sc *smtlib.Script, oracle core.Status, run harness.RunResult) {
	if run.Crashed || run.Result != solver.ResSat || oracle == core.StatusUnsat {
		return
	}
	d.tr.call(layerModelCheck, func() bool {
		ok, _ := harness.ValidateModel(sc, run.Model)
		return ok
	})
}

// check runs every cross-check backend on a script.
func (d *replayer) check(bks []backend.Backend, sc *smtlib.Script) {
	for _, b := range bks {
		d.tr.call(layerBackend, func() bool { return b.Check(sc).Verdict.Definite() })
	}
}

// layerStats is one layer's folded spans.
type layerStats struct {
	calls, fails int
	busy         time.Duration
	durs         []time.Duration
}

// fold computes per-layer call counts, failures and self time. A
// derivation's internal gate is charged to the gate layer: the
// duration of the gate span that re-runs it is moved off the
// derivation's self time.
func (t *tracer) fold() map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, l := range spanLayers {
		out[l] = &layerStats{}
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		st, ok := out[s.layer]
		if !ok {
			continue
		}
		st.calls++
		if s.failed {
			st.fails++
		}
		st.busy += self[i]
		st.durs = append(st.durs, s.dur())
		if s.layer == layerGate && s.gateOf >= 0 {
			out[t.spans[s.gateOf].layer].busy -= s.dur()
		}
	}
	return out
}

// selfTimes is each span's duration minus the part of its interval its
// child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// checkSpans verifies the span tree: children lie inside their task's
// root span, do not overlap, and self times sum to the root duration.
func (t *tracer) checkSpans() error {
	self := t.selfTimes()
	sum := map[int]time.Duration{}
	lastEnd := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.layer)
		}
		sum[s.task] += self[i]
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if p.task != s.task || s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) lies outside its task span", i, s.layer)
		}
		if s.start < lastEnd[s.task] {
			return fmt.Errorf("span %d (%s) overlaps its predecessor", i, s.layer)
		}
		lastEnd[s.task] = s.end
	}
	for _, s := range t.spans {
		if s.parent < 0 && sum[s.task] != s.dur() {
			return fmt.Errorf("task %d: self times sum to %v, task span is %v", s.task, sum[s.task], s.dur())
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of a sample (0 when empty).
func percentile[T int64 | time.Duration](ds []T, p float64) T {
	if len(ds) == 0 {
		return 0
	}
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// runReplay replays the campaign at campaign seed seed for each of the
// workload's SUTs and returns the folded layers. wantTests, when
// positive, is the campaigns' total Result.Tests, which the replay must
// reproduce.
func runReplay(w workload, seed int64, wantTests int, extraGate bool) (*replayer, map[string]*layerStats, error) {
	d := &replayer{w: w, seed: seed, iters: w.iters, tr: newTracer()}
	d.tr.extraGate = extraGate
	for _, sut := range w.suts {
		if err := d.replay(sut); err != nil {
			return d, nil, err
		}
	}
	if err := d.tr.checkSpans(); err != nil {
		return d, nil, err
	}
	if d.roundTripErrs > 0 {
		return d, nil, errors.New("smtlib: printed scripts did not reparse to the same text")
	}
	if wantTests > 0 && d.tests != wantTests {
		return d, nil, fmt.Errorf("span replayer solved %d tests, the replayed campaigns %d", d.tests, wantTests)
	}
	return d, d.tr.fold(), nil
}
