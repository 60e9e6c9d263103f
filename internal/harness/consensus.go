package harness

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/telemetry"
)

// Consensus-oracle funnel counters. Like the yy_backend_* family they
// aggregate over all voters and are incremented only by the in-order
// classification stage, so the totals are bit-identical for any thread
// count. Every counter is per-occurrence (re-triggers included), so a
// K-shard merge reproduces them by plain summation.
var (
	coVotes     = telemetry.NewCounter("yy_oracle_votes_total", "definite verdicts cast by consensus voters on unknown-status tasks")
	coConsensus = telemetry.NewCounter("yy_oracle_consensus_total", "unknown-status tasks where the majority policy reached a consensus")
	coAbstained = telemetry.NewCounter("yy_oracle_abstained_total", "unknown-status tasks where the majority policy abstained (quorum unmet or tie)")
	coOutvoted  = telemetry.NewCounter("yy_oracle_outvoted_total", "definite verdicts outvoted by a majority consensus, SUT included")
	coPairs     = telemetry.NewCounter("yy_oracle_pairs_total", "metamorphic variant pairs derived and solved")
	coPairSkips = telemetry.NewCounter("yy_oracle_pair_skips_total", "unknown-status tasks with no relation-preserving variant")
	coViolation = telemetry.NewCounter("yy_oracle_violations_total", "metamorphic pair-relation violations observed, SUT included")
)

// sutOutput normalizes the SUT's run to the backend.Output the sim
// adapter (backend.NewSim) produces for the same solver, so the SUT is
// judged as one more voter: a crash is Crash with the crash message as
// its reason, anything else maps through backend.FromResult. The SUT is
// in-process, so it has no exit status, stderr, or retries.
func sutOutput(run RunResult) backend.Output {
	if run.Crashed {
		return backend.Output{Verdict: backend.Crash, Reason: run.CrashMsg, ExitCode: -1}
	}
	return backend.Output{Verdict: backend.FromResult(run.Result), Reason: run.Reason, ExitCode: -1}
}

// votes assembles one solve's vote vector: the SUT as voter 0, then the
// backends in configuration order. Every voter appears — abstainers
// included — so the manifest records the full vector.
func votes(run RunResult, bks []backend.Output) []backend.Output {
	return append([]backend.Output{sutOutput(run)}, bks...)
}

// voterName names voter i of a vote vector: "sut" for voter 0 (Validate
// reserves the name), the backend's configured name otherwise.
func voterName(cfg *campaign, i int) string {
	if i == 0 {
		return "sut"
	}
	return cfg.specs[i-1].Name
}

// voteVector renders a vote vector — the primary solve's or the
// variant's — for the reproducer manifest.
func voteVector(cfg *campaign, vs []backend.Output) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = voterName(cfg, i) + "=" + v.Verdict.String()
	}
	return out
}

// classifyConsensus applies the configured consensus policies to one
// unknown-status task. It runs after classify/classifyBackends in the
// in-order classification stage — known-status tasks (and the known
// policy) never reach the body, so the legacy funnel is untouched.
func classifyConsensus(cfg *campaign, st *runState, out *taskOutcome) {
	if !out.tested || out.oracle() != core.StatusUnknown {
		return
	}
	if cfg.majority() {
		classifyMajority(cfg, st, out)
	}
	if cfg.metamorphic() {
		classifyMetamorphic(cfg, st, out)
	}
}

// classifyMajority folds all voters' definite verdicts into a
// consensus and attributes a finding to each outvoted voter. A vote
// with fewer than Quorum definite verdicts — or a tie — abstains: an
// abstention is a statement about the vote, not about any solver, so
// it produces no finding.
func classifyMajority(cfg *campaign, st *runState, out *taskOutcome) {
	res := st.res
	vs := votes(out.run, out.backendRuns)
	sat, unsat := 0, 0
	for _, v := range vs {
		switch v.Verdict {
		case backend.Sat:
			sat++
		case backend.Unsat:
			unsat++
		}
	}
	res.OracleVotes += sat + unsat
	if sat+unsat < cfg.Quorum || sat == unsat {
		res.OracleAbstained++
		out.consensus = "abstained"
		return
	}
	consensus, winners, losers := backend.Sat, sat, unsat
	if unsat > sat {
		consensus, winners, losers = backend.Unsat, unsat, sat
	}
	res.OracleConsensus++
	out.consensus = consensus.String()
	for i, v := range vs {
		if v.Verdict.Definite() && v.Verdict != consensus {
			recordFinding(cfg, st, out, i, bugdb.MajorityDisagreement, out.consensus, v.Verdict.String(),
				fmt.Sprintf("voted %s, outvoted %d-%d under quorum %d", v.Verdict, winners, losers, cfg.Quorum))
		}
	}
}

// relationViolated reports whether a definite (orig, variant) verdict
// pair contradicts the derivation relation.
func relationViolated(rel mutate.Relation, orig, variant backend.Verdict) bool {
	switch rel {
	case mutate.RelEquivalent:
		return orig != variant
	case mutate.RelWeakened:
		// original ⇒ variant: a sat original forces a sat variant.
		return orig == backend.Sat && variant == backend.Unsat
	default: // RelStrengthened
		// variant ⇒ original: a sat variant forces a sat original.
		return variant == backend.Sat && orig == backend.Unsat
	}
}

// classifyMetamorphic checks every voter's verdict pair against the
// variant's derivation relation. Each voter is compared only against
// itself — solver-vs-solver discrepancies are the majority policy's
// business — so a violation implicates exactly one solver with no
// reference solver in the loop.
func classifyMetamorphic(cfg *campaign, st *runState, out *taskOutcome) {
	res := st.res
	if out.variantSkip {
		res.MetamorphicSkips++
		return
	}
	if out.variant == nil {
		return
	}
	res.MetamorphicPairs++
	rel := out.variant.Rel
	// The variant vector can be shorter than the primary (breaker opened
	// between the two solves); such pairs are incomplete and cannot
	// violate.
	vs, vvs := votes(out.run, out.backendRuns), votes(out.variantRun, out.variantBackends)
	for i := 0; i < len(vs) && i < len(vvs); i++ {
		o, v := vs[i].Verdict, vvs[i].Verdict
		if o.Definite() && v.Definite() && relationViolated(rel, o, v) {
			pair := o.String() + "/" + v.String()
			recordFinding(cfg, st, out, i, bugdb.MetamorphicViolation, rel.String(), pair,
				fmt.Sprintf("verdict pair %s violates %s relation", pair, rel))
		}
	}
}
