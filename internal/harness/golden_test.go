package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/solver"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.hash from this build's outputs")

// goldenModes and goldenOracles span every campaign mode and oracle
// policy Validate accepts; the golden matrix is their cross product.
var (
	goldenModes   = []CampaignMode{ModeFusion, ModeMutate, ModeBoth, ModeWild}
	goldenOracles = []OraclePolicy{OracleKnown, OracleMajority, OracleMetamorphic, OracleAuto}
)

// goldenConfig is one matrix cell: a small campaign over two arithmetic
// logics and one string logic with a hermetic cross-check backend and an
// artifact directory, so every output channel carries data (the wild
// cells reach majority consensus and metamorphic violations).
func goldenConfig(mode CampaignMode, oracle OraclePolicy, artifactDir string) CampaignConfig {
	return CampaignConfig{
		SUT:         "z3sim",
		Logics:      []string{"QF_NRA", "QF_LIA", "QF_S"},
		Iterations:  24,
		SeedPool:    4,
		Seed:        7,
		Threads:     2,
		Mode:        string(mode),
		Oracle:      string(oracle),
		ArtifactDir: artifactDir,
		Backends:    []BackendConfig{{Sim: &SimBackendConfig{SUT: "cvc4sim"}}},
	}
}

// bundleTreeBytes serializes a bundle directory as its sorted relative
// file paths, each followed by the file's contents.
func bundleTreeBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "%s %d\n", filepath.ToSlash(rel), len(data))
		buf.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// voters3Config is goldenConfig judged by three backend voters: a
// cvc4sim 1.5 seeded with the guard-collapse soundness defect, a clean
// cvc4sim 1.7, and a fuel-starved z3sim 4.8.5. Three backends plus the
// SUT break the two-voter ties of the plain matrix, so the wild cells
// reach backend-attributed majority disagreements and backend
// metamorphic violations.
func voters3Config(mode CampaignMode, oracle OraclePolicy, artifactDir string) CampaignConfig {
	cc := goldenConfig(mode, oracle, artifactDir)
	cc.Backends = []BackendConfig{
		{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.5", InjectDefects: []string{string(solver.DefLeGuardCollapse)}}},
		{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.7"}},
		{Sim: &SimBackendConfig{SUT: "z3sim", Release: "4.8.5", Fuel: 3000}},
	}
	return cc
}

// goldenCell is one pinned campaign: a name (the .hash file stem) and a
// config builder taking the artifact directory.
type goldenCell struct {
	name string
	cfg  func(artifactDir string) CampaignConfig
}

// goldenCells lists the mode × oracle matrix, then the cells that reach
// the verdict paths the matrix cannot: backend majority disagreements
// and metamorphic violations (voters3-*), and the SUT outvoted by its
// backends (dissenter-*).
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, mode := range goldenModes {
		for _, oracle := range goldenOracles {
			mode, oracle := mode, oracle
			cells = append(cells, goldenCell{string(mode) + "-" + string(oracle),
				func(art string) CampaignConfig { return goldenConfig(mode, oracle, art) }})
		}
	}
	return append(cells,
		goldenCell{"voters3-both-known", func(art string) CampaignConfig { return voters3Config(ModeBoth, OracleKnown, art) }},
		goldenCell{"voters3-wild-auto", func(art string) CampaignConfig { return voters3Config(ModeWild, OracleAuto, art) }},
		goldenCell{"dissenter-wild-auto", func(art string) CampaignConfig {
			cc := consensusCC()
			cc.Oracle = string(OracleAuto)
			cc.ArtifactDir = art
			cc.Threads = 2
			return cc
		}},
	)
}

// TestGoldenHashMatrix pins the byte-level outputs of every mode ×
// oracle combination, plus the extra verdict-path cells of goldenCells —
// result fingerprint, Prometheus metrics, JSONL trace, and reproducer
// bundle tree — as SHA-256 digests committed under testdata/golden. A
// refactor that changes any output byte fails here; a deliberate output
// change regenerates the digests with -update-golden and says so.
func TestGoldenHashMatrix(t *testing.T) {
	for _, cell := range goldenCells() {
		t.Run(cell.name, func(t *testing.T) {
			art := t.TempDir()
			var trace bytes.Buffer
			out, err := Start(cell.cfg(art), RunOptions{
				Telemetry: telemetry.NewTracker(),
				Trace:     &trace,
			})
			if err != nil {
				t.Fatal(err)
			}
			var prom bytes.Buffer
			if err := telemetry.WritePrometheus(&prom, out.Telemetry); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("fingerprint %s\nmetrics %s\ntrace %s\nbundles %s\n",
				sha(out.Result.Fingerprint()), sha(prom.Bytes()),
				sha(trace.Bytes()), sha(bundleTreeBytes(t, art)))

			path := filepath.Join("testdata", "golden", cell.name+".hash")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				r := out.Result
				t.Logf("tests=%d bugs=%d backend-findings=%d bundles=%d consensus=%d pairs=%d violations=%d",
					r.Tests, len(r.Bugs), len(r.BackendFindings), len(r.Artifacts),
					r.OracleConsensus, r.MetamorphicPairs, r.SutViolations)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update-golden)", err)
			}
			if got != string(want) {
				t.Errorf("golden hashes changed:\n%s", lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines of want and got that differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  want %s\n  got  %s\n", wl, gl)
		}
	}
	return b.String()
}
