package eval_test

import (
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/smtlib"
)

// evalSeeds are the seed scripts of the evaluator fuzz targets.
var evalSeeds = []string{
	"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> (div x 0) (mod x 2)))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.contains (str.replace s \"a\" \"\") (str.at s (- 1))))\n(check-sat)\n",
	"(set-logic QF_NRA)\n(declare-fun a () Real)\n(assert (= (/ a a) 1.0))\n(check-sat)\n",
	"(set-logic QF_LIA)\n(declare-fun p () Bool)\n(assert (ite p (< 1 2 3) (distinct 1 2 1)))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.in_re s (re.union (re.* (str.to_re \"a\")) (re.range \"a\" \"z\"))))\n(check-sat)\n",
	"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (<= (to_real (to_int r)) r))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (= (str.to_int (str.from_int (str.len s))) (str.indexof s s 0)))\n(check-sat)\n",
}

// saltedModel binds the script's declared variables the way the
// evaluator fuzz targets share: default values, except that salt bit 0
// leaves the first variable unbound (the ErrUnbound path) and salt bit 1
// binds every variable to a deliberately wrong-sorted value (the
// ErrSortMismatch path: Bool is wrong for every non-Bool variable,
// String for every Bool one). It also returns the declared names in
// declaration order.
func saltedModel(sc *smtlib.Script, salt byte) (eval.Model, []string) {
	m := eval.Model{}
	var names []string
	for i, d := range sc.Declarations() {
		names = append(names, d.Name)
		switch {
		case salt&1 == 1 && i == 0:
		case salt&2 == 2:
			if d.Sort.String() == "Bool" {
				m[d.Name] = eval.StrV("oops")
			} else {
				m[d.Name] = eval.BoolV(true)
			}
		default:
			m[d.Name] = eval.DefaultValue(d.Sort)
		}
	}
	return m, names
}

// FuzzEvalTotal checks the evaluator's totality contract: on any term
// the elaborator accepts, under any model — including models with
// missing bindings and wrong-sort bindings — evaluation returns either
// a value or a structured *eval.Error, and never panics. The salt
// steers the model away from well-formedness so the unbound and
// sort-mismatch branches are exercised, not just the happy path.
func FuzzEvalTotal(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s, byte(0))
		f.Add(s, byte(3))
	}
	f.Fuzz(func(t *testing.T, src string, salt byte) {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			return
		}
		m, _ := saltedModel(sc, salt)
		for _, a := range sc.Asserts() {
			v, err := eval.Term(a, m)
			if err != nil {
				var ee *eval.Error
				if !errors.As(err, &ee) {
					t.Fatalf("unstructured evaluation error %T: %v", err, err)
				}
				continue
			}
			if v == nil {
				t.Fatal("evaluation returned neither value nor error")
			}
		}
	})
}

// FuzzCompiledMatchesTerm checks Compile against Term: under the same
// salted models as FuzzEvalTotal, laid out as a slot vector, every
// assert's compiled evaluator returns the value Term returns (equal and
// of the same sort) or an *eval.Error with the same cause and path —
// and does so again on a second call, when its argument buffers and
// matchers are already warm.
func FuzzCompiledMatchesTerm(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s, byte(0))
		f.Add(s, byte(1))
		f.Add(s, byte(2))
	}
	f.Fuzz(func(t *testing.T, src string, salt byte) {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			return
		}
		m, names := saltedModel(sc, salt)
		index := map[string]int{}
		slots := make([]eval.Value, len(names))
		for i, name := range names {
			index[name] = i
			slots[i] = m[name]
		}
		slot := func(name string) int {
			if i, ok := index[name]; ok {
				return i
			}
			return -1
		}
		for _, a := range sc.Asserts() {
			want, wantErr := eval.Term(a, m)
			c := eval.Compile(a, slot)
			for call := 0; call < 2; call++ {
				got, gotErr := c(slots)
				if wantErr != nil {
					var we, ge *eval.Error
					if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) {
						t.Fatalf("call %d: Term error %v, compiled error %v (value %v)", call, wantErr, gotErr, got)
					}
					if we.Err != ge.Err || we.Path != ge.Path {
						t.Fatalf("call %d: Term error %v, compiled error %v", call, wantErr, gotErr)
					}
					continue
				}
				if gotErr != nil {
					t.Fatalf("call %d: Term value %v, compiled error %v", call, want, gotErr)
				}
				if got.Sort() != want.Sort() || !eval.Equal(got, want) {
					t.Fatalf("call %d: Term value %v, compiled value %v", call, want, got)
				}
			}
		}
	})
}
