package solver

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
)

// corpusAsserts generates the differential corpus: for every logic and
// seed, one sat and one unsat script's assert list.
func corpusAsserts(t *testing.T, seeds int) [][]ast.Term {
	t.Helper()
	var out [][]ast.Term
	for _, logic := range gen.AllLogics {
		for seed := int64(0); seed < int64(seeds); seed++ {
			for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
				g, err := gen.New(logic, seed)
				if err != nil {
					t.Fatalf("gen.New(%s): %v", logic, err)
				}
				out = append(out, g.Generate(status).Script.Asserts())
			}
		}
	}
	return out
}

// TestWarmMatchesCold is the tier-1 differential: a solver reusing its
// warm cache (the rewrite memo) across many scripts must produce
// outcomes bit-identical to a cold solver per script — same verdict,
// same model, same fired defects, same fuel spent. This is the
// transparency claim the campaign fast path rests on.
func TestWarmMatchesCold(t *testing.T) {
	warm := NewReference() // never reset: caches accumulate across scripts
	for i, asserts := range corpusAsserts(t, 3) {
		cold := NewReference().Solve(asserts)
		got := warm.Solve(asserts)
		if got.Result != cold.Result || got.Reason != cold.Reason {
			t.Fatalf("script %d: warm verdict %v (%q), cold %v (%q)",
				i, got.Result, got.Reason, cold.Result, cold.Reason)
		}
		if !reflect.DeepEqual(got.Model, cold.Model) {
			t.Fatalf("script %d: warm model %v, cold model %v", i, got.Model, cold.Model)
		}
		if !reflect.DeepEqual(got.DefectsFired, cold.DefectsFired) {
			t.Fatalf("script %d: warm defects %v, cold %v", i, got.DefectsFired, cold.DefectsFired)
		}
		if got.FuelSpent != cold.FuelSpent {
			t.Fatalf("script %d: warm fuel %d, cold %d", i, got.FuelSpent, cold.FuelSpent)
		}
	}
}
