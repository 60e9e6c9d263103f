package harness

import (
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Backend cross-check funnel counters. These aggregate over every
// configured backend (per-name registration would collide across
// campaigns — counter names are global); the per-backend breakdown
// lives in Result.Backends. All increments happen in the in-order
// classification stage, so totals for hermetic backends are
// bit-identical for any thread count.
var (
	cbChecks   = telemetry.NewCounter("yy_backend_checks_total", "cross-check backend invocations performed")
	cbSkipped  = telemetry.NewCounter("yy_backend_skipped_total", "cross-checks skipped because the backend was quarantined")
	cbTimeouts = telemetry.NewCounter("yy_backend_timeouts_total", "backend checks cut off by the wall-clock deadline or fuel meter")
	cbCrashes  = telemetry.NewCounter("yy_backend_crashes_total", "backend checks that died (nonzero exit, signal, spawn failure)")
	cbGarbled  = telemetry.NewCounter("yy_backend_garbled_total", "backend checks that completed with no parseable verdict")
	cbFaults   = telemetry.NewCounter("yy_backend_faults_total", "in-process backend adapters that panicked (our bug, not the solver's)")
	cbRetries  = telemetry.NewCounter("yy_backend_retries_total", "transient-failure retries consumed by backend checks")
	cbDisagree = telemetry.NewCounter("yy_backend_disagreements_total", "backend verdicts contradicting the known-status oracle")
	cbFindings = telemetry.NewCounter("yy_backend_findings_total", "deduplicated backend findings recorded")
)

// SimBackendSpec wraps a simulated solver release as a hermetic
// cross-check backend: deterministic, in-process, preserving the
// campaign's bit-identical thread-count invariance (its only
// "failures" are deterministic fuel timeouts, so it carries no
// circuit breaker). fuel follows CampaignConfig.Fuel semantics: 0
// default, >0 override, <0 unlimited. inject adds defects beyond the
// release's catalogued set — consensus tests use it to script a
// dissenter.
func SimBackendSpec(s bugdb.SUT, release string, fuel int64, inject ...solver.Defect) backend.Spec {
	if release == "" {
		release = "trunk"
	}
	name := string(s) + "@" + release
	return backend.Spec{
		Name:     name,
		Hermetic: true,
		New: func() (backend.Backend, error) {
			defects, err := bugdb.DefectsIn(s, release)
			if err != nil {
				return nil, err
			}
			for _, d := range inject {
				defects[d] = true
			}
			lim := solver.DefaultLimits()
			if fuel > 0 {
				lim.Fuel = fuel
			} else if fuel < 0 {
				lim.Fuel = 0
			}
			return backend.NewSim(name, solver.New(solver.Config{Defects: defects, Limits: lim})), nil
		},
	}
}

// BackendReport is one backend's per-campaign health summary: how many
// checks ran, how they classified, and whether the circuit breaker
// quarantined the backend (degraded mode).
type BackendReport struct {
	Name     string
	Hermetic bool
	// Checks counts performed invocations; Skipped counts tasks whose
	// check was suppressed by an open circuit breaker.
	Checks  int
	Skipped int
	// Verdict tallies over the performed checks.
	Sat      int
	Unsat    int
	Unknowns int
	Timeouts int
	Crashes  int
	Garbled  int
	Faults   int
	// Retries sums the transient-failure retries consumed.
	Retries int
	// Disagreements counts definite verdicts contradicting the
	// known-status oracle (including re-triggers of deduplicated
	// findings).
	Disagreements int
	// Outvoted counts this backend's definite verdicts outvoted by the
	// majority policy's consensus; Violations counts its metamorphic
	// pair violations. Both include re-triggers of deduplicated
	// findings. omitempty keeps known-policy checkpoints, fingerprints,
	// and the pre-consensus fuzz corpus byte-identical.
	Outvoted   int `json:"Outvoted,omitempty"`
	Violations int `json:"Violations,omitempty"`
	// Quarantined reports the breaker state at campaign end.
	Quarantined bool
}

// BackendFinding is one deduplicated cross-check observation: a
// disagreement with the known-status oracle, or a contained failure of
// the backend itself (timeout, crash, garbled output). Backend findings
// are reported separately from Result.Bugs — they implicate the
// backend solver (or the cross-check harness), not a catalogued defect
// of the solver under test.
type BackendFinding struct {
	// Backend names the implicated voter; the pseudo-name "sut" marks a
	// consensus finding attributed to the solver under test itself.
	Backend string
	Kind    bugdb.BugType // Disagreement, Crash, Garbled, Performance (timeout), MajorityDisagreement, or MetamorphicViolation
	Logic   string
	// Oracle is the reference the observation contradicts: the known
	// status for Disagreement, the consensus verdict for
	// MajorityDisagreement, the pair relation for MetamorphicViolation.
	// Observed is the backend's classified verdict (for metamorphic
	// findings, the "orig/variant" verdict pair).
	Oracle   string
	Observed string
	Reason   string
	// Defect names the catalogued defect fired on a consensus finding
	// attributed to the SUT ("" otherwise). omitempty keeps the
	// pre-consensus fuzz corpus decodable unchanged.
	Defect string `json:"Defect,omitempty"`
	// ExitCode and Stderr carry the process post-mortem for external
	// backends (-1/"" for in-process adapters).
	ExitCode int
	Stderr   string
	Retries  int
	Task     int // global task index, for trace correlation
}

// bkKey dedups backend findings: one bundle per (backend, kind,
// observed-vs-oracle shape); re-triggers only bump the report tallies.
type bkKey struct {
	backendIdx int
	kind       bugdb.BugType
	oracle     string
	observed   string
}

// backendTriage is the in-order classification state for backend
// cross-checks (created once per Run when backends are configured).
type backendTriage struct {
	seen map[bkKey]bool
}

// runBackends performs the cross-checks for one task. Called on the
// worker, off the classification path, so external solver latency
// overlaps across workers like SUT solves do.
func runBackends(bks []backend.Backend, sc *smtlib.Script) []backend.Output {
	if len(bks) == 0 {
		return nil
	}
	outs := make([]backend.Output, len(bks))
	for i, b := range bks {
		outs[i] = b.Check(sc)
	}
	return outs
}

// classifyBackends folds one task's backend outputs into the result:
// report tallies, deduplicated findings, and reproducer bundles. It
// runs in the in-order classification stage, so finding order and
// artifact contents are deterministic for hermetic backends.
func classifyBackends(res *Result, cfg *campaign, aw *artifactWriter, bt *backendTriage, out taskOutcome) {
	oracle := out.oracle()
	logic := cfg.logic(out.id)
	for i, o := range out.backendRuns {
		rep := &res.Backends[i]
		kind, skipped := tallyBackend(rep, o)
		if skipped {
			continue
		}
		if vote, definite := backendStatus(o.Verdict); contradicts(vote, definite, oracle) {
			rep.Disagreements++
			kind = bugdb.Disagreement
		}
		if kind == "" {
			continue
		}
		key := bkKey{backendIdx: i, kind: kind, observed: o.Verdict.String()}
		if kind == bugdb.Disagreement {
			// Only disagreements dedup per oracle: sat-claimed-unsat and
			// unsat-claimed-sat are distinct observations, while a hang or
			// garble is the same failure whatever the expected status.
			key.oracle = oracle.String()
		}
		if bt.seen[key] {
			continue
		}
		bt.seen[key] = true
		f := BackendFinding{
			Backend:  cfg.specs[i].Name,
			Kind:     kind,
			Logic:    string(logic),
			Oracle:   oracle.String(),
			Observed: o.Verdict.String(),
			Reason:   o.Reason,
			ExitCode: o.ExitCode,
			Stderr:   o.Stderr,
			Retries:  o.Retries,
			Task:     out.id,
		}
		res.BackendFindings = append(res.BackendFindings, f)
		if aw != nil {
			m := manifestFor(cfg, out, "backend-"+string(kind), "")
			m.Backend = f.Backend
			m.BackendArgv = cfg.specs[i].Argv
			m.BackendExit = o.ExitCode
			m.BackendStderr = o.Stderr
			m.BackendRetries = o.Retries
			m.Observed = f.Observed
			m.Reason = f.Reason
			aw.write(m, out.ancestors, out.testScript(), out.id)
		}
	}
	// Metamorphic-variant solves consume the same backend budget as
	// primary checks, so their verdicts are tallied into the reports.
	// They NEVER produce findings here: a variant script has no known
	// status for the differential oracle to check against — violations
	// of the pair relation are classifyConsensus's business.
	for i, o := range out.variantBackends {
		tallyBackend(&res.Backends[i], o)
	}
}

// tallyBackend folds one backend output into its report tallies and
// returns the contained-failure kind it classifies as ("" for parsed
// verdicts) plus whether the check was suppressed by an open breaker.
func tallyBackend(rep *BackendReport, o backend.Output) (kind bugdb.BugType, skipped bool) {
	if o.Verdict == backend.Quarantined {
		rep.Skipped++
		return "", true
	}
	rep.Checks++
	rep.Retries += o.Retries
	switch o.Verdict {
	case backend.Sat:
		rep.Sat++
	case backend.Unsat:
		rep.Unsat++
	case backend.Unknown:
		rep.Unknowns++
	case backend.Timeout:
		rep.Timeouts++
		kind = bugdb.Performance
	case backend.Crash:
		rep.Crashes++
		kind = bugdb.Crash
	case backend.Garbled:
		rep.Garbled++
		kind = bugdb.Garbled
	case backend.Fault:
		rep.Faults++ // our adapter's bug: tallied, never a finding
	}
	return kind, false
}

// finishBackends fills the end-of-campaign breaker states into the
// per-backend reports.
func finishBackends(res *Result, cfg *campaign) {
	for i := range res.Backends {
		res.Backends[i].Quarantined = cfg.specs[i].Health.Quarantined()
	}
}

// Degraded reports whether any backend ended the campaign quarantined:
// the campaign completed, but with that backend's cross-checks
// suppressed from the first breaker opening onward.
func (r *Result) Degraded() bool {
	for _, rep := range r.Backends {
		if rep.Quarantined {
			return true
		}
	}
	return false
}
