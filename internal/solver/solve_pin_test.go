package solver

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/telemetry"
)

var updateSolvePins = flag.Bool("update-solve-pins", false, "rewrite the testdata/*.hash solve pins from this build's outcomes")

// solvePin is one row of the per-script solve pins: the generator
// families it covers and the hash file holding their digests.
type solvePin struct {
	logics []gen.Logic
	file   string
}

var (
	// stringsPin covers the families whose scripts reach the string
	// theory's bounded witness search.
	stringsPin = solvePin{[]gen.Logic{gen.QFS, gen.QFSLIA, gen.StringFuzz}, "strings-search.hash"}
	// arithPin covers the arithmetic families: CDCL, simplex,
	// branch-and-bound and the interval/nonlinear procedures.
	arithPin = solvePin{[]gen.Logic{gen.LIA, gen.LRA, gen.NRA, gen.QFLIA, gen.QFLRA, gen.QFNRA, gen.QFNIA}, "arith-solve.hash"}
)

// pinFuel is the small per-solve budget of the all-defects arm: enough
// for most scripts to finish, too little for the widest searches, so
// timeouts and hang drains (pf-strings-dfs-hang among them) both occur.
const pinFuel = 100

// pinDigest renders one solve — verdict, reason, sorted model, fired
// defects, fuel, and the per-solve telemetry counters — and returns a
// short digest of the rendering. A crash-defect panic is rendered in
// place of the outcome.
func pinDigest(s *Solver, tr *telemetry.Tracker, asserts []ast.Term) string {
	before := tr.Snapshot()
	var b strings.Builder
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(&b, "panic %v\n", r)
			}
		}()
		out := s.Solve(asserts)
		fmt.Fprintf(&b, "result %v\nreason %q\n", out.Result, out.Reason)
		names := make([]string, 0, len(out.Model))
		for name := range out.Model {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "model %s %v %s\n", name, out.Model[name].Sort(), out.Model[name])
		}
		fmt.Fprintf(&b, "defects %v\nfuel %d\n", out.DefectsFired, out.FuelSpent)
	}()
	delta := tr.Snapshot().Diff(before)
	for _, name := range delta.Names() {
		if strings.HasPrefix(name, "yy_warm_eval_") {
			continue
		}
		if v, ok := delta.Counters[name]; ok {
			fmt.Fprintf(&b, "counter %s %d\n", name, v)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

type pinScript struct {
	name    string
	asserts []ast.Term
}

// TestStringSearchPinned pins the string solver's observable behaviour
// over the string generator families; see checkSolvePin.
func TestStringSearchPinned(t *testing.T) { checkSolvePin(t, stringsPin) }

// TestArithSolvePinned pins the arithmetic path — CDCL decisions and
// conflicts, simplex pivots and tableau reuse, branch-and-bound and
// interval steps — over the arithmetic generator families; see
// checkSolvePin.
func TestArithSolvePinned(t *testing.T) { checkSolvePin(t, arithPin) }

// checkSolvePin solves every script of the pin's families (seeds 0–19,
// sat and unsat) and compares the digest of its outcome and per-solve
// counters under a cold reference solver, under one reference solver
// carried across every script (the campaign's reuse pattern), and
// under every defect with the pin's small fuel budget (timeouts, hang
// drains, crash sites). Changes to the solver's implementation must
// leave every digest in the pin's hash file untouched; a deliberate
// behaviour change regenerates it with -update-solve-pins.
func checkSolvePin(t *testing.T, pin solvePin) {
	var scripts []pinScript
	for _, logic := range pin.logics {
		for seed := int64(0); seed < 20; seed++ {
			for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
				g, err := gen.New(logic, seed)
				if err != nil {
					t.Fatalf("gen.New(%s): %v", logic, err)
				}
				scripts = append(scripts, pinScript{
					name:    fmt.Sprintf("%s/%d/%v", logic, seed, status),
					asserts: g.Generate(status).Script.Asserts(),
				})
			}
		}
	}

	all := map[Defect]bool{}
	for _, d := range AllDefects {
		all[d] = true
	}
	starved := DefaultLimits()
	starved.Fuel = pinFuel

	carriedTr := telemetry.NewTracker()
	carried := New(Config{Telemetry: carriedTr})
	var got strings.Builder
	for _, sc := range scripts {
		coldTr := telemetry.NewTracker()
		cold := pinDigest(New(Config{Telemetry: coldTr}), coldTr, sc.asserts)
		warm := pinDigest(carried, carriedTr, sc.asserts)
		defTr := telemetry.NewTracker()
		def := pinDigest(New(Config{Defects: all, Limits: starved, Telemetry: defTr}), defTr, sc.asserts)
		fmt.Fprintf(&got, "%s cold=%s carried=%s defects=%s\n", sc.name, cold, warm, def)
	}

	path := filepath.Join("testdata", pin.file)
	if *updateSolvePins {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-solve-pins)", err)
	}
	wantLines := lines(string(want))
	gotLines := lines(got.String())
	if len(wantLines) != len(gotLines) {
		t.Fatalf("pinned %d scripts, solved %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("outcome changed:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}

func lines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}
