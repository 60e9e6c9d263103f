package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/harness"
)

// workload is one named campaign mix. Every campaign of a workload is
// built from the benchmark seed alone, so the program under test sees
// nothing but a harness.CampaignConfig.
type workload struct {
	name string
	// suts lists the solvers under test, one campaign each, run in order.
	suts []string
	// unitCost is the wall time one unit (every SUT's campaign at one
	// campaign seed, with its output checks) takes on a 2-CPU host. A run
	// of --seconds measures seconds/unitCost units, so the measured work
	// is a function of the arguments alone, never of the host's speed.
	unitCost float64
	logics   []string
	mode     string
	oracle   string
	pool     int
	iters    int
	// backends are the hermetic cross-check voters (sim SUT@release).
	backends []harness.SimBackendConfig
	// resume pauses each campaign at the task-space midpoint and finishes
	// it through EncodeCheckpoint, DecodeCheckpoint and Resume.
	resume bool
	// artifacts writes reproducer bundles and the JSONL event log into a
	// fresh directory per campaign.
	artifacts bool
}

var arithLogics = []string{"LIA", "LRA", "NRA", "QF_LIA", "QF_LRA", "QF_NRA", "QF_NIA"}

var workloads = []workload{
	{
		// Thousands of sub-millisecond tests: per-task cost spread over
		// derivation, rewrite, CDCL, simplex and B&B; no string work.
		name: "arith", suts: []string{"z3sim", "cvc4sim"}, logics: arithLogics,
		mode: "both", oracle: "known", pool: 20, iters: 40,
		unitCost: 0.9,
	},
	{
		// Unknown ground truth judged by three voters, with persistence
		// and a checkpoint round trip beside the compute.
		name: "wild", suts: []string{"z3sim"}, logics: []string{"QF_LIA", "QF_NRA", "NRA", "QF_SLIA", "StringFuzz"},
		mode: "wild", oracle: "auto", pool: 10, iters: 10,
		unitCost: 0.75,
		backends: []harness.SimBackendConfig{{SUT: "cvc4sim"}, {SUT: "z3sim", Release: "4.8.5"}},
		resume:   true, artifacts: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// workers is the campaign worker count of every workload. With one
// worker the time between two Progress callbacks is one task's wall
// time, and the run leaves the second CPU of a small host to the
// garbage collector instead of measuring the scheduler. Results do not
// depend on the worker count.
const workers = 1

// config builds the campaign for one SUT of the workload at a seed.
// artifactDir is only set on workloads that persist bundles.
func (w workload) config(sut string, seed int64, artifactDir string) harness.CampaignConfig {
	cc := harness.CampaignConfig{
		SUT:         sut,
		Logics:      w.logics,
		Iterations:  w.iters,
		SeedPool:    w.pool,
		Seed:        seed,
		Threads:     workers,
		Mode:        w.mode,
		Oracle:      w.oracle,
		ArtifactDir: artifactDir,
	}
	for _, b := range w.backends {
		b := b
		cc.Backends = append(cc.Backends, harness.BackendConfig{Sim: &b})
	}
	return cc
}

// tasks is the number of derivation tasks in one campaign.
func (w workload) tasks() int { return len(w.logics) * w.iters }

// campaign is one campaign of a unit.
type campaign struct {
	label string // workload, SUT and campaign seed, for messages
	sut   string
	seed  int64
}

// unitSeed derives the campaign seed of unit k from the benchmark seed.
func (w workload) unitSeed(seed int64, k int) int64 {
	return int64(mix64(mix64(uint64(seed)^hashName(w.name)) + uint64(k)*0x9e3779b97f4a7c15))
}

// unit lists the campaigns of unit k: one per SUT, in order, at the
// unit's campaign seed.
func (w workload) unit(seed int64, k int) []campaign {
	sub := w.unitSeed(seed, k)
	var out []campaign
	for _, sut := range w.suts {
		out = append(out, campaign{label: fmt.Sprintf("%s/%s campaign seed %d", w.name, sut, sub), sut: sut, seed: sub})
	}
	return out
}

// units is the number of units a run of the given length measures.
func (w workload) units(budget time.Duration) int {
	n := int(math.Round(budget.Seconds() / w.unitCost))
	if n < minUnits {
		n = minUnits
	}
	return n
}

// minUnits is the fewest units a run measures: the per-unit medians
// need a middle.
const minUnits = 3

// scaled is a reduced copy of the workload for the self-tests: smaller
// corpora and fewer tasks, same mix.
func (w workload) scaled(iters, pool int) workload {
	w.iters, w.pool = iters, pool
	return w
}

// command is the yinyang invocation that reruns campaign c.
func (w workload) command(c campaign) string {
	cmd := fmt.Sprintf("go run ./cmd/yinyang -sut %s -logics %s -mode %s -oracle %s -iters %d -pool %d -seed %d -threads %d",
		c.sut, strings.Join(w.logics, ","), w.mode, w.oracle, w.iters, w.pool, c.seed, workers)
	for _, b := range w.backends {
		cmd += " -backend " + b.SUT
		if b.Release != "" {
			cmd += "@" + b.Release
		}
	}
	return cmd
}
