package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cryowire"
	"cryowire/internal/platform"
)

// dsePoints is the size of DefaultDSESpace(false): 4 temperatures × 3
// modes × 4 depths × 4 nets × 3 workloads.
const dsePoints = 576

// checkpointEvery pins the engine's journal batch size so batch gaps
// measure the same unit on every commit.
const checkpointEvery = 64

// dseConfig is the dse-full search: the exhaustive grid over the full
// default space at quick simulation lengths.
func dseConfig(seed int64, workers int) cryowire.DSEConfig {
	sim := cryowire.QuickOptions().Sim
	sim.Seed = seed
	return cryowire.DSEConfig{
		Space:           cryowire.DefaultDSESpace(false),
		Strategy:        "grid",
		Sim:             sim,
		Workers:         workers,
		CheckpointEvery: checkpointEvery,
	}
}

// dseRun is what one journaled grid run plus its resume produced.
type dseRun struct {
	grid, resume time.Duration
	evaluated    int
	resumed      int
	frontier     []byte
	frontierSize int
	// batchGaps are the times between consecutive checkpoint batches
	// landing (Progress callbacks at multiples of checkpointEvery).
	batchGaps []float64
}

// dsePass runs the grid journaled to a fresh file in dir, then resumes
// it from that journal; the resume must replay every entry, simulate
// nothing, append nothing and reproduce the frontier byte for byte.
func dsePass(ctx context.Context, cfg cryowire.DSEConfig, dir string, k int, tr *tracer, parent int) (dseRun, error) {
	var run dseRun
	cfg.Journal = filepath.Join(dir, "grid-"+strconv.Itoa(k)+".jsonl")
	cfg.Platform = platform.New()
	var last time.Time
	cfg.Progress = func(done, budget int) {
		if done%checkpointEvery != 0 && done != budget {
			return
		}
		now := time.Now()
		if !last.IsZero() {
			run.batchGaps = append(run.batchGaps, float64(now.Sub(last))/1e6)
		}
		last = now
	}
	start := time.Now()
	last = start
	sp := tr.begin(parent, "dse", "grid", "grid-"+strconv.Itoa(k))
	res, err := cryowire.RunDSE(ctx, cfg)
	tr.end(sp)
	run.grid = time.Since(start)
	if err != nil {
		return run, fmt.Errorf("grid: %w", err)
	}
	if run.frontier, err = res.JSON(); err != nil {
		return run, err
	}
	run.evaluated, run.frontierSize = res.Evaluated, len(res.Frontier)
	before, err := os.Stat(cfg.Journal)
	if err != nil {
		return run, err
	}

	cfg.Resume = true
	cfg.Progress = nil
	cfg.Platform = platform.New()
	start = time.Now()
	sp = tr.begin(parent, "dse", "resume", "grid-"+strconv.Itoa(k))
	res2, err := cryowire.RunDSE(ctx, cfg)
	tr.end(sp)
	run.resume = time.Since(start)
	if err != nil {
		return run, fmt.Errorf("resume: %w", err)
	}
	run.resumed = res2.Evaluated
	again, err := res2.JSON()
	if err != nil {
		return run, err
	}
	after, err := os.Stat(cfg.Journal)
	if err != nil {
		return run, err
	}
	switch {
	case !bytes.Equal(again, run.frontier):
		return run, fmt.Errorf("resumed frontier differs from the journaled run's")
	case after.Size() != before.Size():
		return run, fmt.Errorf("resume appended %d journal bytes; it must replay without simulating", after.Size()-before.Size())
	}
	return run, os.Remove(cfg.Journal)
}

// dseChecker checks grid runs against the recorded frontier digest of
// their simulation seed.
type dseChecker struct {
	want string
}

// newDSEChecker loads the recorded digest of seed; record-digests
// writes every simulation seed, so a missing one is an error.
func newDSEChecker(seed int64) (*dseChecker, error) {
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	w, ok := d.DSEFull[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, fmt.Errorf("digests.json has no dse-full digest for sim seed %d", seed)
	}
	return &dseChecker{want: w}, nil
}

// check counts one pass (grid + resume = two operations) into res.
func (c *dseChecker) check(run dseRun, err error, res *result) {
	res.Attempted += 2
	if err != nil {
		res.fail("dse-full: %v", err)
		return
	}
	if run.evaluated != dsePoints || run.resumed != dsePoints {
		res.fail("dse-full: evaluated %d, resumed %d, want %d", run.evaluated, run.resumed, dsePoints)
	}
	if got := sha(run.frontier); got != c.want {
		res.fail("dse-full: frontier digest %s differs from the recorded %s", got[:16], c.want[:16])
	}
}

// tempRoot is the directory temporary files go under: inside the
// run's state directory, so a run writes nothing outside its checkout.
func tempRoot() string {
	d := filepath.Join(stateDir(), "tmp")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return os.TempDir()
	}
	return d
}

// tempDir makes a fresh directory under tempRoot, counting a failure
// into res; "" when it could not.
func tempDir(res *result, prefix string) string {
	dir, err := os.MkdirTemp(tempRoot(), prefix)
	if err != nil {
		res.fail("temp dir: %v", err)
		return ""
	}
	return dir
}

// removeDir deletes a temp directory; a leftover is only litter under
// the state directory, so the error is reported, not fatal.
func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// timedDSE is the dse-full workload: journaled grid + resume passes
// until the budget is spent, calling between before every pass after
// the first. The first pass warms the heap and caches up and is
// checked but not timed; wall_s is the median grid time of the others.
func timedDSE(ctx context.Context, o opts, budget time.Duration, between func(), res *result) {
	seed := simSeed(o.Seed)
	res.Params["sim_seed"] = seed
	res.Params["points"] = dsePoints
	chk, err := newDSEChecker(seed)
	if err != nil {
		res.fail("%v", err)
		return
	}
	dir := tempDir(res, "dse-")
	if dir == "" {
		return
	}
	defer removeDir(dir)
	cfg := dseConfig(seed, o.Workers)
	var grids, resumes []float64
	_ = repeatPasses(ctx, budget, 1+minTimedPasses, func(k int) error {
		if k > 0 {
			between()
		}
		run, err := dsePass(ctx, cfg, dir, k, nil, 0)
		chk.check(run, err, res)
		if err != nil {
			return err
		}
		if k > 0 {
			grids = append(grids, run.grid.Seconds())
			resumes = append(resumes, run.resume.Seconds())
		}
		return nil
	})
	res.Metrics.set("wall_s", "s", median(grids))
	res.Metrics.set("resume_s", "s", median(resumes))
	res.Aux["wall_samples"] = grids
	res.Aux["resume_samples"] = resumes
	res.Aux["digest"] = chk.want
}
