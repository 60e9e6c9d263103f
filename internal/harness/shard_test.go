package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/telemetry"
)

// TestShardSplitCoversTaskSpace checks the ownership rule underlying
// sharding: for any K, the shards' task id lists partition [0, total)
// exactly — no id unowned, none owned twice.
func TestShardSplitCoversTaskSpace(t *testing.T) {
	cc := ckptConfig()
	total := cc.withDefaults().total()
	for _, k := range []int{1, 2, 3, 7, total, total + 3} {
		owned := map[int]int{}
		for s := 0; s < k; s++ {
			sc := cc
			sc.Shards, sc.Shard = k, s
			prev := -1
			for _, id := range sc.withDefaults().includeIDs() {
				if id <= prev {
					t.Fatalf("K=%d shard %d ids not ascending at %d", k, s, id)
				}
				prev = id
				if other, dup := owned[id]; dup {
					t.Fatalf("K=%d task %d owned by shards %d and %d", k, id, other, s)
				}
				owned[id] = s
			}
		}
		if len(owned) != total {
			t.Fatalf("K=%d shards own %d of %d tasks", k, len(owned), total)
		}
	}
}

// TestShardMergeDeterminism splits the same campaign K ways for
// several K, runs every shard as its own campaign with a different
// worker count, round-trips each envelope through its serialized form,
// and merges. The merged result fingerprint, telemetry snapshot, JSONL
// trace, and reproducer-bundle tree must be byte-identical to the
// unsharded single-process run — including the cross-shard folds the
// shards cannot see locally: global bug dedup, duplicate counts,
// backend finding dedup, funnel counters, and trace finding flags. The
// voters3 campaign adds backend-attributed majority and metamorphic
// findings, which the merge re-folds through the name-keyed dedup key.
func TestShardMergeDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cc   CampaignConfig
		// tame reports a reference too weak to exercise the folds the
		// case is there for.
		tame func(r *Result) bool
	}{
		{"ckpt", ckptConfig(), func(r *Result) bool {
			return len(r.Bugs) == 0 || len(r.BackendFindings) == 0 || r.Duplicates == 0
		}},
		{"voters3-wild-auto", voters3Config(ModeWild, OracleAuto, ""), func(r *Result) bool {
			kinds := map[bugdb.BugType]bool{}
			for _, f := range r.BackendFindings {
				if f.Backend != "sut" {
					kinds[f.Kind] = true
				}
			}
			return !kinds[bugdb.MajorityDisagreement] || !kinds[bugdb.MetamorphicViolation]
		}},
	}
	type reference struct {
		out   *Outcome
		trace []byte
		tree  map[string]string
	}
	refs := make([]reference, len(cases))
	for i, c := range cases {
		cc := c.cc
		cc.ArtifactDir = t.TempDir()
		out, trace := runToCompletion(t, cc)
		if c.tame(out.Result) {
			t.Fatalf("%s: reference campaign too tame to exercise the merge folds: %+v", c.name, summaryLine(out))
		}
		refs[i] = reference{out, trace, dirSnapshot(t, cc.ArtifactDir)}
	}

	for _, k := range []int{2, 3, 7} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for i, c := range cases {
				ref := refs[i]
				t.Run(c.name, func(t *testing.T) {
					shardRoot := t.TempDir()
					envs := make([]*Envelope, k)
					for s := 0; s < k; s++ {
						sc := c.cc
						sc.Shards, sc.Shard = k, s
						sc.ArtifactDir = filepath.Join(shardRoot, fmt.Sprintf("sh%d", s))
						tr := telemetry.NewTracker()
						var tb bytes.Buffer
						out, err := Start(sc, RunOptions{Telemetry: tr, Trace: &tb, Threads: s%3 + 1})
						if err != nil {
							t.Fatalf("shard %d: %v", s, err)
						}
						if out.Paused {
							t.Fatalf("shard %d paused", s)
						}
						data, err := EncodeEnvelope(out.Envelope)
						if err != nil {
							t.Fatalf("shard %d encode: %v", s, err)
						}
						env, err := DecodeEnvelope(data)
						if err != nil {
							t.Fatalf("shard %d decode: %v", s, err)
						}
						// Merge maps envelopes by their shard index, not their
						// position in the argument list.
						envs[k-1-s] = env
					}
					mergedDir := t.TempDir()
					m, err := Merge(envs, mergedDir)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(m.Result.Fingerprint(), ref.out.Result.Fingerprint()) {
						t.Errorf("merged result diverged:\nref %s\ngot %s",
							ref.out.Result.Fingerprint(), m.Result.Fingerprint())
					}
					if !reflect.DeepEqual(m.Telemetry, ref.out.Telemetry) {
						t.Errorf("merged telemetry diverged:\nref %+v\ngot %+v", ref.out.Telemetry, m.Telemetry)
					}
					if !bytes.Equal(m.Trace, ref.trace) {
						t.Errorf("merged trace diverged (%d vs %d bytes)", len(m.Trace), len(ref.trace))
					}
					if got := dirSnapshot(t, mergedDir); !reflect.DeepEqual(got, ref.tree) {
						t.Errorf("merged bundle tree diverged:\nref  %v\ngot %v", keysOf(ref.tree), keysOf(got))
					}
				})
			}
		})
	}
}

func summaryLine(out *Outcome) string {
	r := out.Result
	return fmt.Sprintf("bugs=%d dups=%d backend=%d", len(r.Bugs), r.Duplicates, len(r.BackendFindings))
}

// TestMergeFailClosed checks Merge refuses envelope sets that are not
// the K shards of one campaign: short sets, duplicated shards, and
// envelopes from a different experiment.
func TestMergeFailClosed(t *testing.T) {
	shardEnv := func(cc CampaignConfig, k, s int) *Envelope {
		t.Helper()
		sc := cc
		sc.Shards, sc.Shard = k, s
		out, err := Start(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out.Envelope
	}
	cc := ckptConfig()
	e0 := shardEnv(cc, 2, 0)
	e1 := shardEnv(cc, 2, 1)

	if _, err := Merge(nil, ""); err == nil {
		t.Error("merged zero envelopes")
	}
	if _, err := Merge([]*Envelope{e0}, ""); err == nil {
		t.Error("merged half of a 2-shard campaign")
	}
	if _, err := Merge([]*Envelope{e0, e0}, ""); err == nil {
		t.Error("merged the same shard twice")
	}
	if _, err := Merge([]*Envelope{e0, nil}, ""); err == nil {
		t.Error("merged a nil envelope")
	}

	foreign := cc
	foreign.Seed = 12345
	if _, err := Merge([]*Envelope{e0, shardEnv(foreign, 2, 1)}, ""); err == nil {
		t.Error("merged shards of two different campaigns")
	}

	// Thread count and artifact directory are process-local choices, not
	// campaign identity: envelopes differing only there must merge.
	varied := cc
	varied.Threads = 4
	varied.ArtifactDir = t.TempDir()
	if _, err := Merge([]*Envelope{e0, shardEnv(varied, 2, 1)}, ""); err != nil {
		t.Errorf("thread/artifact variation rejected: %v", err)
	}

	// A merged campaign must also round-trip: the merge of envelopes is
	// rejected when an envelope claims a partial shard. Simulate by
	// tampering the task count.
	bad := *e1
	bad.Tasks--
	if _, err := Merge([]*Envelope{e0, &bad}, ""); err == nil {
		t.Error("merged an envelope with a short task count")
	}
}
