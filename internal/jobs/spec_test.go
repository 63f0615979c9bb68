package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cryowire/internal/dse"
)

// TestSpecSurrogateRoundTrip: the surrogate fields survive the
// config -> spec -> JSON -> spec -> config round-trip a durable job
// makes, and specs without them marshal without the new keys (so specs
// written before the surrogate existed rewrite byte-identically).
func TestSpecSurrogateRoundTrip(t *testing.T) {
	space := dse.DefaultSpace(true)
	cfg := dse.Config{
		Space:        space,
		Strategy:     dse.StrategyScreen,
		Budget:       8,
		Seed:         5,
		Priors:       []string{"a.jsonl", "b.jsonl"},
		ScreenMargin: 0.15,
	}
	cfg.Sim.WarmupCycles, cfg.Sim.MeasureCycles, cfg.Sim.Seed = 400, 1600, 1

	sp := SpecFromConfig(cfg)
	if !reflect.DeepEqual(sp.Prior, cfg.Priors) || sp.ScreenMargin != cfg.ScreenMargin {
		t.Fatalf("SpecFromConfig dropped surrogate fields: %+v", sp)
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Priors, cfg.Priors) || got.ScreenMargin != cfg.ScreenMargin {
		t.Fatalf("spec round-trip lost surrogate fields: priors=%v margin=%v", got.Priors, got.ScreenMargin)
	}

	// A spec without surrogate fields must not grow the new keys.
	plain := cfg
	plain.Strategy = dse.StrategyGrid
	plain.Priors, plain.ScreenMargin = nil, 0
	pb, err := json.Marshal(SpecFromConfig(plain))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(pb, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"prior", "screen_margin"} {
		if _, ok := m[k]; ok {
			t.Fatalf("plain spec marshals key %q; omitempty broken, old specs would rewrite differently", k)
		}
	}
}

// preLanesSpecJSON is testSpec(4) as spec.json was written while specs
// still carried the batch_lanes scheduling knob.
const preLanesSpecJSON = `{
  "strategy": "grid",
  "budget": 4,
  "seed": 1,
  "temps_k": [300, 77],
  "modes": ["nominal", "cryosp"],
  "depths": [14, 17],
  "nets": ["mesh", "cryobus"],
  "workloads": ["x264"],
  "warmup_cycles": 300,
  "measure_cycles": 900,
  "sim_seed": 1,
  "workers": 2,
  "batch_lanes": 4
}
`

// TestPreLanesSpecResumes: a job directory whose spec.json still
// carries "batch_lanes":4 loads, and the interrupted job resumes from
// its journal to the same frontier bytes as a plain synchronous run.
func TestPreLanesSpecResumes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(4)
	job, err := s.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	id := job.State.ID
	if err := os.WriteFile(filepath.Join(dir, id, specFile), []byte(preLanesSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Load(id)
	if err != nil {
		t.Fatalf("pre-lanes spec.json did not load: %v", err)
	}
	if !reflect.DeepEqual(loaded.Spec, sp) {
		t.Fatalf("pre-lanes spec loaded as %+v, want %+v", loaded.Spec, sp)
	}
	// Journal the first half, then leave the job as a crash would.
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = 2
	cfg.Journal = s.JournalPath(id)
	if _, err := dse.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	job.State.Status = StatusRunning
	if _, err := s.SaveState(job.State); err != nil {
		t.Fatal(err)
	}

	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())
	waitStatus(t, m, id, StatusDone)
	got, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs:\n got: %s\nwant: %s", got, want)
	}
}
