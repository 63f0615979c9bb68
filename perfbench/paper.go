package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cryowire"
	"cryowire/internal/platform"
)

// paperOptions are the options of one registry pass: QuickOptions on a
// fresh platform, with the workload's simulation seed and worker count.
func paperOptions(seed int64, workers int) cryowire.Options {
	opt := cryowire.QuickOptions()
	opt.Sim.Seed = seed
	opt.Workers = workers
	opt.Platform = platform.New()
	return opt
}

// paperPass runs the whole registry once through RunAllExperimentsCtx
// and returns the rendered reports in ID order plus every failure.
func paperPass(ctx context.Context, seed int64, workers int) ([]reportEntry, []error) {
	reps, errs, _ := timedPaperPass(ctx, paperOptions(seed, workers))
	return reps, errs
}

// timedPaperPass is paperPass with the options built by the caller, so
// only the RunAllExperimentsCtx call is timed.
func timedPaperPass(ctx context.Context, opt cryowire.Options) ([]reportEntry, []error, time.Duration) {
	start := time.Now()
	outs := cryowire.RunAllExperimentsCtx(ctx, opt)
	wall := time.Since(start)
	reps := make([]reportEntry, 0, len(outs))
	var errs []error
	for _, oc := range outs {
		if oc.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", oc.ID, oc.Err))
			continue
		}
		b, err := oc.Report.JSON()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", oc.ID, err))
			continue
		}
		reps = append(reps, reportEntry{ID: oc.ID, JSON: b})
	}
	return reps, errs, wall
}

// paperChecker checks registry passes against the recorded digest of
// their simulation seed.
type paperChecker struct {
	want paperDigest
}

// newPaperChecker loads the recorded digest of seed; record-digests
// writes every simulation seed, so a missing one is an error.
func newPaperChecker(seed int64) (*paperChecker, error) {
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	w, ok := d.PaperQuick[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, fmt.Errorf("digests.json has no paper-quick digest for sim seed %d", seed)
	}
	return &paperChecker{want: w}, nil
}

// check counts one pass's experiments into res: each failed run or
// wrong report is a failed operation.
func (c *paperChecker) check(reps []reportEntry, errs []error, res *result) paperDigest {
	got := digestReports(reps)
	res.Attempted += len(reps) + len(errs)
	for _, err := range errs {
		res.fail("paper-quick: %v", err)
	}
	for _, id := range mismatches(c.want, got) {
		if _, ran := got.Reports[id]; !ran {
			continue // already counted as an error, or missing from the registry
		}
		res.fail("paper-quick: %s: report differs from the recorded digest", id)
	}
	if n, m := len(c.want.Reports), len(got.Reports)+len(errs); n != m {
		res.fail("paper-quick: registry has %d experiments, the digest has %d", m, n)
	}
	return got
}

// timedPaper is the paper-quick workload: whole-registry passes until
// the budget is spent, calling between before every pass after the
// first. The first pass warms the heap and caches up and is checked
// but not timed; wall_s is the median of the others.
func timedPaper(ctx context.Context, o opts, budget time.Duration, between func(), res *result) {
	seed := simSeed(o.Seed)
	res.Params["sim_seed"] = seed
	res.Params["experiments"] = len(cryowire.ExperimentIDs())
	chk, err := newPaperChecker(seed)
	if err != nil {
		res.fail("%v", err)
		return
	}
	var walls []float64
	var digest paperDigest
	_ = repeatPasses(ctx, budget, 1+minTimedPasses, func(k int) error {
		if k > 0 {
			between()
		}
		opt := paperOptions(seed, o.Workers)
		reps, errs, wall := timedPaperPass(ctx, opt)
		if k > 0 {
			walls = append(walls, wall.Seconds())
		}
		digest = chk.check(reps, errs, res)
		return ctx.Err()
	})
	res.Metrics.set("wall_s", "s", median(walls))
	res.Aux["wall_samples"] = walls
	res.Aux["digest"] = digest.All
}

// experimentsPass runs every experiment through RunExperimentCtx on a
// pool of workers, one span per experiment, and returns per-experiment
// durations and the pass's platform cache statistics. This is the
// traced counterpart of a registry pass (RunAllExperimentsCtx cannot
// attribute time to experiments).
func experimentsPass(ctx context.Context, seed int64, workers int, tr *tracer, parent int) (reps []reportEntry, errs []error, durs map[string]time.Duration, wall time.Duration, st platform.CacheStats) {
	opt := paperOptions(seed, workers)
	ids := cryowire.ExperimentIDs()
	out := make([]reportEntry, len(ids))
	errAt := make([]error, len(ids))
	took := make([]time.Duration, len(ids))
	next := make(chan int, len(ids))
	for i := range ids {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := time.Now()
				sp := tr.begin(parent, "experiments", ids[i], ids[i])
				rep, err := cryowire.RunExperimentCtx(ctx, ids[i], opt)
				tr.end(sp)
				took[i] = time.Since(t)
				if err == nil {
					var b []byte
					if b, err = rep.JSON(); err == nil {
						out[i] = reportEntry{ID: ids[i], JSON: b}
					}
				}
				if err != nil {
					errAt[i] = fmt.Errorf("%s: %w", ids[i], err)
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	durs = make(map[string]time.Duration, len(ids))
	for i, id := range ids {
		durs[id] = took[i]
		if errAt[i] != nil {
			errs = append(errs, errAt[i])
		} else {
			reps = append(reps, out[i])
		}
	}
	return reps, errs, durs, wall, opt.Platform.Stats()
}
