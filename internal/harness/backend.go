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

// findingKey dedups backend findings: one bundle per (voter, kind,
// observed-vs-oracle shape); re-triggers only bump the report tallies.
// Voters are keyed by name — names are unique and Validate reserves
// "sut" — so checkpoints and shard envelopes rebuild the key from a
// recorded finding alone.
type findingKey struct {
	voter    string
	kind     bugdb.BugType
	oracle   string
	observed string
}

// keyOf builds the dedup key of a finding. The oracle participates only
// for the disagreement-shaped kinds: a hang or garble is the same
// failure whatever the expected status, but a contradicted oracle, an
// outvoted verdict or a pair violation is a distinct observation per
// reference it contradicts.
func keyOf(voter string, kind bugdb.BugType, oracle, observed string) findingKey {
	k := findingKey{voter: voter, kind: kind, observed: observed}
	if kind == bugdb.Disagreement || kind == bugdb.MajorityDisagreement || kind == bugdb.MetamorphicViolation {
		k.oracle = oracle
	}
	return k
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
func classifyBackends(cfg *campaign, st *runState, out *taskOutcome) {
	oracle := out.oracle()
	for i, o := range out.backendRuns {
		kind := tallyBackend(&st.res.Backends[i], o)
		if contradicts(o.Verdict, oracle) {
			kind = bugdb.Disagreement
		}
		if kind != "" {
			recordFinding(cfg, st, out, i+1, kind, oracle.String(), o.Verdict.String(), o.Reason)
		}
	}
	// Metamorphic-variant solves consume the same backend budget as
	// primary checks, so their verdicts are tallied into the reports.
	// They NEVER produce findings here: a variant script has no known
	// status for the differential oracle to check against — violations
	// of the pair relation are classifyConsensus's business.
	for i, o := range out.variantBackends {
		tallyBackend(&st.res.Backends[i], o)
	}
}

// tallyBackend folds one backend output into its report tallies and
// returns the contained-failure kind it classifies as ("" for parsed
// verdicts and for checks suppressed by an open breaker).
func tallyBackend(rep *BackendReport, o backend.Output) (kind bugdb.BugType) {
	if o.Verdict == backend.Quarantined {
		rep.Skipped++
		return ""
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
	return kind
}

// recordFinding records one finding against voter i of the task's vote
// vector (0 = the SUT, i > 0 = backend i-1): a known-status
// disagreement or contained failure, an outvoted verdict, or a
// metamorphic pair violation. It is the only place a BackendFinding is
// made. Every occurrence bumps the voter's tally; only the first per
// findingKey is recorded, triaged (an SUT finding to the catalogued
// defect its runs fired) and written as a bundle carrying the backend's
// post-mortem and the policy's vote vector or variant pair.
func recordFinding(cfg *campaign, st *runState, out *taskOutcome, i int, kind bugdb.BugType, oracle, observed, reason string) {
	res := st.res
	outvoted, violations := &res.SutOutvoted, &res.SutViolations
	if i > 0 {
		rep := &res.Backends[i-1]
		outvoted, violations = &rep.Outvoted, &rep.Violations
		if kind == bugdb.Disagreement {
			rep.Disagreements++
		}
	}
	switch kind {
	case bugdb.MajorityDisagreement:
		*outvoted++
	case bugdb.MetamorphicViolation:
		*violations++
	}
	name := voterName(cfg, i)
	key := keyOf(name, kind, oracle, observed)
	if st.seen[key] {
		return
	}
	st.seen[key] = true

	// The SUT runs in-process: no post-mortem, but a defect to triage
	// to, like a known-status soundness finding. A backend's post-mortem
	// is its primary check's — for a pair violation the variant check's,
	// charged with both checks' retries.
	pm := backend.Output{ExitCode: -1}
	var defect solver.Defect
	if i == 0 {
		fired := out.run.DefectsFired
		if kind == bugdb.MetamorphicViolation {
			fired = append(append([]solver.Defect(nil), fired...), out.variantRun.DefectsFired...)
		}
		defect, _ = primaryDefect(fired, bugdb.Soundness)
	} else {
		pm = out.backendRuns[i-1]
		if kind == bugdb.MetamorphicViolation {
			vo := out.variantBackends[i-1]
			vo.Retries += pm.Retries
			pm = vo
		}
	}
	res.BackendFindings = append(res.BackendFindings, BackendFinding{
		Backend:  name,
		Kind:     kind,
		Logic:    string(cfg.logic(out.id)),
		Oracle:   oracle,
		Observed: observed,
		Reason:   reason,
		Defect:   string(defect),
		ExitCode: pm.ExitCode,
		Stderr:   pm.Stderr,
		Retries:  pm.Retries,
		Task:     out.id,
	})
	if st.aw == nil {
		return
	}
	m := manifestFor(cfg, *out, "backend-"+string(kind), defect)
	m.Backend, m.Oracle, m.Observed, m.Reason = name, oracle, observed, reason
	if i > 0 {
		m.BackendArgv = cfg.specs[i-1].Argv
		m.BackendExit, m.BackendStderr, m.BackendRetries = pm.ExitCode, pm.Stderr, pm.Retries
	}
	var extra map[string]string
	switch kind {
	case bugdb.MajorityDisagreement:
		m.OraclePolicy, m.Quorum, m.Consensus = cfg.Oracle, cfg.Quorum, oracle
		m.Votes = voteVector(cfg, votes(out.run, out.backendRuns))
	case bugdb.MetamorphicViolation:
		m.OraclePolicy, m.MetaRelation, m.MetaRules = cfg.Oracle, oracle, out.variant.Rules
		m.VariantVerdicts = voteVector(cfg, votes(out.variantRun, out.variantBackends))
		extra = map[string]string{"variant.smt2": smtlib.Print(out.variant.Script)}
	}
	st.aw.writeExtra(m, out.ancestors, out.testScript(), out.id, extra)
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
