package solver

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/solver/arith"
	"repro/internal/solver/sat"
	"repro/internal/telemetry"
)

// This file implements the live incremental mode: a push/pop assertion
// stack on Solver whose Check calls share one CDCL instance, one warm
// simplex tableau, and the solver's warm caches across frames.
//
// The architecture (DESIGN §4.11):
//
//   - Frames hold preprocessed asserts. Per-frame preprocessing runs
//     the rewriter (memoized), quantifier normalization, and ite
//     lifting — but NOT definitional inlining: inlining substitutes
//     across assert boundaries, and a definition from a popped frame
//     baked into a retained frame's asserts would be unsound.
//   - The boolean abstraction is encoded frame by frame into a single
//     sat.Solver. Push opens a sat frame; Pop retracts the frame's
//     clauses and variables, keeps learned clauses whose dependency
//     tags show they rest only on retained frames, and rolls back the
//     atom table and fresh-name counter to the frame boundary.
//   - Unit arithmetic atoms are additionally asserted into a warm
//     arith.Session (one simplex tableau for the whole session).
//     Infeasibility of that unit layer is a sound unsat fast path;
//     its Mark/PopToMark follows the frame stack, so popped atoms are
//     retracted while shared tableau rows stay warm.
//   - Each Check runs the same DPLL(T) loop as Solve under a fresh
//     fuel meter. Theory-refuted boolean models are blocked with
//     sat.AddLemma (theory-valid: retained across Pops down to the
//     deepest frame mentioned). Certification failures and theory
//     unknowns are blocked inside a scratch sat frame that Check pops
//     before returning, so heuristic blockings never outlive the call.
//
// Verdicts agree with the cold path: Check and a monolithic Solve over
// the live asserts run the same preprocessing pipeline modulo
// inlining, the same theory procedures, and the same certification,
// and every cross-Check artifact (learned lemmas, warm tableau, warm
// caches) is either logically implied by the live asserts or
// observationally invisible.

// cLiveFallbacks counts Checks that could not be answered by the
// incremental path and restarted through the monolithic pipeline.
var cLiveFallbacks = telemetry.NewCounter("yy_live_fallback_total", "incremental Checks answered by the monolithic fallback")

// incFrame is one assertion frame of a live session.
type incFrame struct {
	orig []ast.Term // asserts as given (completeness-fallback input)
	pre  []ast.Term // preprocessed asserts of this frame
	// vars are the free variables of the frame's ORIGINAL asserts —
	// preprocessing can rewrite a variable away entirely, but models
	// must still bind it (mirroring the cold path's origVars).
	vars map[string]ast.Sort
	// Rollback marks recorded when the frame opened:
	fresh  int // freshCounter (skolem/ite-lift names)
	nAtoms int // length of the abstraction's atom table
	sxMark int // arith session undo mark
}

// incState is the live-session state hung off a Solver.
type incState struct {
	ab     *abstraction
	frames []incFrame
	sess   *arith.Session
	broken error // encoding failed: the session is poisoned
}

// incremental lazily opens the live session with its base frame.
func (s *Solver) incremental() *incState {
	if s.inc == nil {
		ab := &abstraction{sat: sat.New(), atomOf: map[ast.Term]int{}}
		ab.atomTerm = append(ab.atomTerm, nil)
		ab.trueVar = ab.newAux()
		ab.sat.AddClause(sat.Lit(ab.trueVar))
		ab.sat.MaxConflicts = 200000
		ab.sat.Telem = s.cfg.Telemetry
		s.inc = &incState{ab: ab, sess: arith.NewSession()}
		s.inc.frames = []incFrame{{fresh: s.freshCounter, nAtoms: len(ab.atomTerm), sxMark: s.inc.sess.Mark()}}
	}
	return s.inc
}

// Push opens a new assertion frame.
func (s *Solver) Push() {
	st := s.incremental()
	st.ab.sat.Push()
	st.frames = append(st.frames, incFrame{
		fresh:  s.freshCounter,
		nAtoms: len(st.ab.atomTerm),
		sxMark: st.sess.Mark(),
	})
}

// Pop retracts the top assertion frame: its clauses, atoms, simplex
// bounds, and fresh-name allocations. Learned clauses and tableau rows
// that rest only on retained frames stay warm. Panics when only the
// base frame is open.
func (s *Solver) Pop() {
	st := s.incremental()
	if len(st.frames) <= 1 {
		panic("solver: Pop without matching Push")
	}
	f := st.frames[len(st.frames)-1]
	st.frames = st.frames[:len(st.frames)-1]
	st.ab.sat.Pop()
	// Roll the atom table back to the frame boundary.
	for _, t := range st.ab.atomTerm[f.nAtoms:] {
		if t != nil {
			delete(st.ab.atomOf, t)
		}
	}
	st.ab.atomTerm = st.ab.atomTerm[:f.nAtoms]
	st.sess.PopToMark(f.sxMark)
	s.freshCounter = f.fresh
	// A poisoned session heals when the offending frame pops; the error
	// is conservative (re-set on the next failing Assert).
	st.broken = nil
}

// Assert adds asserts to the current frame, preprocessing and encoding
// them immediately so Check starts from a ready boolean skeleton.
func (s *Solver) Assert(asserts ...ast.Term) error {
	st := s.incremental()
	if st.broken != nil {
		return st.broken
	}
	for _, a := range asserts {
		pre, err := s.preprocessLive(a)
		if err != nil {
			st.broken = err
			return err
		}
		top := &st.frames[len(st.frames)-1]
		if top.vars == nil {
			top.vars = map[string]ast.Sort{}
		}
		for _, v := range ast.FreeVars(a) {
			top.vars[v.Name] = v.VSort
		}
		top.orig = append(top.orig, a)
		for _, p := range pre {
			top.pre = append(top.pre, p)
			l, err := st.ab.encode(p, s)
			if err != nil {
				st.broken = err
				return err
			}
			st.ab.sat.AddClause(l)
			// Unit arithmetic atoms feed the warm tableau. An immediate
			// conflict is recorded by the session itself (and cleared
			// when this frame pops); Check consults Feasible.
			s.assertUnitAtom(st, p)
		}
	}
	return nil
}

// preprocessLive preprocesses one assert for the live session: the
// full cold pipeline minus definitional inlining (see the file
// comment). Ite lifting may return guard asserts alongside the
// rewritten term.
func (s *Solver) preprocessLive(a ast.Term) ([]ast.Term, error) {
	t := s.rewriteCached(a)
	if ast.HasQuantifier(t) {
		t = s.rewriteCached(s.normalizeQuant(t))
		if ast.HasQuantifier(t) {
			s.hit(pQuantGiveUp)
			return nil, fmt.Errorf("quantifier not eliminated: %s", ast.Print(t))
		}
	}
	lifted := s.liftIte([]ast.Term{t})
	out := lifted[:0]
	for _, l := range lifted {
		r := s.rewriteCached(l)
		if bl, ok := r.(*ast.BoolLit); ok && bl.V {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// assertUnitAtom feeds a top-level arithmetic atom into the session's
// warm tableau. Non-atoms, string atoms, and unconvertible shapes are
// skipped — the tableau is a relaxation, not a decision procedure.
func (s *Solver) assertUnitAtom(st *incState, p ast.Term) {
	if !isAtom(p) || hasStringSubterm(p) {
		return
	}
	abs := arith.NewAbstractor("\x00nl!")
	expr, rel, ok := s.litToAtom(p, abs)
	if !ok || abs.Len() > 0 {
		// Nonlinear abstraction variables are fresh per Abstractor, so
		// their bounds would not be shared across asserts; skip rather
		// than pollute the tableau with unconstrained variables.
		return
	}
	st.sess.Assert(arith.Atom{Expr: expr, Rel: rel})
}

func hasStringSubterm(t ast.Term) bool {
	has := false
	ast.Walk(t, func(n ast.Term) bool {
		if n.Sort() == ast.SortString || n.Sort() == ast.SortRegLan {
			has = true
		}
		return !has
	})
	return has
}

// liveAsserts collects the preprocessed asserts of every open frame.
func (st *incState) liveAsserts() []ast.Term {
	var out []ast.Term
	for _, f := range st.frames {
		out = append(out, f.pre...)
	}
	return out
}

// Check decides the conjunction of all live asserts, reusing the
// session's CDCL instance, learned lemmas, warm tableau, and warm
// caches. Each call runs under a fresh fuel meter, exactly like Solve.
func (s *Solver) Check() Outcome {
	st := s.incremental()
	s.fired = map[Defect]bool{}
	s.meter = fuel.NewMeter(s.cfg.Limits.Fuel)
	s.cfg.Telemetry.Inc(cSolves)
	defer func() { s.cfg.Telemetry.Add(cFuelSpent, s.meter.Spent()) }()
	out := s.checkLive(st)
	if out.Result == ResUnknown && st.broken == nil && !s.meter.Exhausted() {
		// Completeness fallback: the incremental path answered unknown
		// with fuel to spare — typically because the inline-free live
		// preprocessing left shapes the certifier keeps rejecting.
		// Restart as a monolithic solve over the original asserts (the
		// full cold pipeline, including inlining), under the same meter.
		// The live skeleton, learned lemmas, and warm tableau are
		// untouched; only the answer comes from the cold pipeline. This
		// is the standard incremental-solver escape hatch, and it is what
		// makes live verdicts match cold verdicts even where the DPLL(T)
		// loop's enumeration order diverges.
		s.cfg.Telemetry.Inc(cLiveFallbacks)
		saved := s.freshCounter
		s.freshCounter = 0
		var orig []ast.Term
		for _, f := range st.frames {
			orig = append(orig, f.orig...)
		}
		out = s.solve(orig)
		s.freshCounter = saved
	}
	out.FuelSpent = s.meter.Spent()
	if out.Result == ResUnknown && s.meter.Exhausted() {
		out.Result = ResTimeout
		out.Reason = "fuel exhausted"
	}
	if out.Result == ResSat {
		s.corruptModel(out.Model)
	}
	for d := range s.fired {
		out.DefectsFired = append(out.DefectsFired, d)
	}
	sortDefects(out.DefectsFired)
	return out
}

func (s *Solver) checkLive(st *incState) Outcome {
	if st.broken != nil {
		return Outcome{Result: ResUnknown, Reason: st.broken.Error()}
	}
	pre := st.liveAsserts()

	// Original variables from every frame, plus variables preprocessing
	// introduced into the live asserts (skolem/ite-lift names).
	origVars := map[string]ast.Sort{}
	for _, f := range st.frames {
		for name, srt := range f.vars {
			origVars[name] = srt
		}
	}
	for _, a := range pre {
		for _, v := range ast.FreeVars(a) {
			origVars[v.Name] = v.VSort
		}
	}

	// Trivial outcomes, mirroring solve.
	allTrue := true
	for _, a := range pre {
		if bl, ok := a.(*ast.BoolLit); ok {
			if !bl.V {
				return Outcome{Result: ResUnsat}
			}
			continue
		}
		allTrue = false
	}
	if allTrue {
		return Outcome{Result: ResSat, Model: s.assembleModel(eval.Model{}, nil, nil, origVars)}
	}

	// Warm-tableau fast path: the unit arithmetic atoms alone are
	// infeasible, so the whole conjunction is unsat. The session is a
	// relaxation, so only the negative answer is usable.
	st.sess.SetBudget(s.meter, s.cfg.Telemetry)
	if feasible, err := st.sess.Feasible(); err == nil && !feasible {
		return Outcome{Result: ResUnsat}
	}

	ab := st.ab
	ab.sat.Fuel = s.meter

	// Scratch frame for heuristic blocking clauses: certification
	// failures and theory unknowns block a specific boolean model for
	// THIS Check only — retaining them could flip a later Check's
	// verdict. Theory-valid lemmas are added with AddLemma and survive.
	ab.sat.Push()
	defer ab.sat.Pop()

	sawUnknown := false
	unknownStreak := 0
	totalUnknowns := 0
	for iter := 0; iter < s.cfg.Limits.MaxBoolModels; iter++ {
		if s.meter.Exhausted() {
			return Outcome{Result: ResUnknown, Reason: "fuel exhausted"}
		}
		switch ab.sat.Solve() {
		case sat.Unsat:
			if sawUnknown {
				return Outcome{Result: ResUnknown, Reason: "incomplete theory reasoning"}
			}
			return Outcome{Result: ResUnsat}
		case sat.Unknown:
			return Outcome{Result: ResUnknown, Reason: "sat core budget exhausted"}
		}
		s.hit(pSolveSatCore)

		var lits []ast.Term
		boolModel := eval.Model{}
		var blocking []sat.Lit
		for v := 1; v < len(ab.atomTerm); v++ {
			atom := ab.atomTerm[v]
			if atom == nil {
				continue
			}
			val := ab.sat.Value(v)
			if val {
				blocking = append(blocking, -sat.Lit(v))
			} else {
				blocking = append(blocking, sat.Lit(v))
			}
			if bv, ok := atom.(*ast.Var); ok {
				boolModel[bv.Name] = eval.BoolV(val)
				continue
			}
			if val {
				lits = append(lits, atom)
			} else {
				lits = append(lits, ast.Not(atom))
			}
		}

		st2, thModel := s.theoryCheck(lits)
		theoryValid := false
		switch st2 {
		case arith.Sat:
			model := s.assembleModel(boolModel, thModel, nil, origVars)
			if s.certify(pre, model, boolModel, thModel) {
				return Outcome{Result: ResSat, Model: model}
			}
			s.hit(pSolveCertifyFail)
			sawUnknown = true
			unknownStreak++
			totalUnknowns++
		case arith.Unsat:
			// Theory-valid lemma: retained across Pops.
			theoryValid = true
			unknownStreak = 0
		case arith.Unknown:
			sawUnknown = true
			unknownStreak++
			totalUnknowns++
		}
		if unknownStreak >= 8 || totalUnknowns >= 20 {
			return Outcome{Result: ResUnknown, Reason: "persistent theory incompleteness"}
		}
		s.hit(pSolveBlocked)
		if len(blocking) == 0 {
			model := s.assembleModel(boolModel, thModel, nil, origVars)
			if s.certify(pre, model, boolModel, thModel) {
				return Outcome{Result: ResSat, Model: model}
			}
			return Outcome{Result: ResUnknown, Reason: "certification failed"}
		}
		added := false
		if theoryValid {
			added = ab.sat.AddLemma(blocking...)
		} else {
			added = ab.sat.AddClause(blocking...)
		}
		if !added {
			if sawUnknown {
				return Outcome{Result: ResUnknown, Reason: "incomplete theory reasoning"}
			}
			return Outcome{Result: ResUnsat}
		}
	}
	return Outcome{Result: ResUnknown, Reason: "boolean model budget exhausted"}
}

// ReuseStats reports the session's warm-reuse counters for -stats
// output: cache totals live in the telemetry tracker; this adds the
// structural numbers only the session knows.
type ReuseStats struct {
	Frames       int // open assertion frames (including base)
	LiveAsserts  int // preprocessed asserts across all frames
	LearnedLive  int // learned clauses currently attached
	AtomsLive    int // interned theory atoms
	TableauAtoms int // simplex variables in the warm tableau
}

// Reuse returns the live session's structural statistics. Zero values
// when no session is open.
func (s *Solver) Reuse() ReuseStats {
	if s.inc == nil {
		return ReuseStats{}
	}
	return ReuseStats{
		Frames:       len(s.inc.frames),
		LiveAsserts:  len(s.inc.liveAsserts()),
		LearnedLive:  s.inc.ab.sat.NumLearned(),
		AtomsLive:    len(s.inc.ab.atomOf),
		TableauAtoms: s.inc.sess.NumVars(),
	}
}
