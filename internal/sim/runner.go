package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cryowire/internal/fault"
	"cryowire/internal/par"
	"cryowire/internal/workload"
)

// LaneSpec names one simulation to run: the design × workload × config
// triple a System is built from. It is the unit the Runner dedups and
// schedules.
type LaneSpec struct {
	Design  Design
	Profile workload.Profile
	Config  Config
}

// LaneError is the typed per-spec failure of a Runner call: it names
// which spec (position in the submitted slice) failed and on what
// design × workload, and wraps the underlying cause so errors.Is/As see
// through it (context cancellation, *StallError, validation errors).
// One failed spec never aborts the others — they run to completion and
// return their own results.
type LaneError struct {
	// Lane is the index of the failed spec in the slice the caller
	// submitted to Runner.RunCtx.
	Lane int
	// Design and Workload echo the failed spec.
	Design   string
	Workload string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *LaneError) Error() string {
	return fmt.Sprintf("sim: lane %d (%s/%s): %v", e.Lane, e.Design, e.Workload, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// laneError stamps err as spec i's failure.
func (sp LaneSpec) laneError(i int, err error) *LaneError {
	return &LaneError{Lane: i, Design: sp.Design.Name, Workload: sp.Profile.Name, Err: err}
}

// fingerprint canonicalizes the spec for dedup. Evaluation is a pure
// function of (Design, Profile, Config) — the determinism contract the
// golden fixtures pin — so two specs with equal fingerprints produce
// byte-identical Results. The context and Workers knobs never change
// the output bytes and are excluded; Fault is dereferenced so equal
// scenarios match regardless of pointer identity. Every other reachable
// field is a value type (strings, numbers, bools, fixed structs) or,
// for the core's critical-path stage list, a slice of them, so %#v
// renders a canonical string: Go's float formatting is
// shortest-round-trip, meaning distinct values always print distinctly.
// TestFingerprintFieldsAreValues enforces that premise.
func (sp LaneSpec) fingerprint() string {
	cfg := sp.Config
	cfg.ctx = nil
	cfg.Workers = 0
	var fc fault.Config
	hasFault := cfg.Fault != nil
	if hasFault {
		fc = *cfg.Fault
	}
	cfg.Fault = nil
	return fmt.Sprintf("%#v|%#v|%#v|%v|%#v", sp.Design, sp.Profile, cfg, hasFault, fc)
}

// ResultCache memoizes completed simulations by spec fingerprint, so a
// sweep that revisits a configuration (experiments share rows; DSE
// strategies re-propose grid corners) serves it without re-simulating.
// Safe for concurrent use. Only successful Results are cached — errors
// always re-run.
type ResultCache struct {
	mu sync.Mutex
	m  map[string]Result
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]Result)}
}

func (c *ResultCache) get(key string) (Result, bool) {
	c.mu.Lock()
	r, ok := c.m[key]
	c.mu.Unlock()
	return r, ok
}

func (c *ResultCache) put(key string, r Result) {
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
}

// Runner runs a slice of LaneSpecs: it dedups identical specs (within
// the call and, with Cache, across calls) and runs each remaining spec
// with one System.Run on a par.ForCtx pool. Results are index-aligned
// with the submitted specs.
type Runner struct {
	// Workers bounds concurrent simulations; 0 or 1 runs them serially.
	Workers int
	// Cache, when non-nil, serves previously completed specs without
	// re-simulating and records new completions.
	Cache *ResultCache
}

// RunCtx runs every spec and returns results and errors index-aligned
// with specs. Failures are per-spec *LaneErrors (Lane = index into
// specs); one failed spec never aborts the others. ctx cancels the
// whole call: simulations already running stop at their next
// cancellation poll, specs not yet started are skipped, and every
// unfinished spec reports a *LaneError wrapping ctx's error. Specs
// whose Config already carries a context keep it; the rest inherit ctx.
func (r *Runner) RunCtx(ctx context.Context, specs []LaneSpec) ([]Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))

	// Dedup: cache hits resolve immediately; within the call the first
	// occurrence of a fingerprint runs and later ones share its slot.
	keys := make([]string, len(specs))
	primary := make(map[string]int, len(specs))
	dups := make(map[int]int)
	pending := make([]int, 0, len(specs))
	for i := range specs {
		keys[i] = specs[i].fingerprint()
		if r.Cache != nil {
			if res, ok := r.Cache.get(keys[i]); ok {
				results[i] = res
				dedup.hits.Add(1)
				continue
			}
		}
		if j, ok := primary[keys[i]]; ok {
			dups[i] = j
			dedup.hits.Add(1)
			continue
		}
		primary[keys[i]] = i
		pending = append(pending, i)
	}
	dedup.misses.Add(uint64(len(pending)))

	ran := make([]bool, len(pending))
	perr := par.ForCtx(ctx, len(pending), r.Workers, func(k int) {
		ran[k] = true
		i := pending[k]
		sp := specs[i]
		if sp.Config.ctx == nil {
			sp.Config = sp.Config.WithContext(ctx)
		}
		s, err := New(sp.Design, sp.Profile, sp.Config)
		if err == nil {
			results[i], err = s.Run()
		}
		if err != nil {
			errs[i] = sp.laneError(i, err)
			return
		}
		if r.Cache != nil {
			r.Cache.put(keys[i], results[i])
		}
	})
	// Specs skipped by cancellation: par.ForCtx only stops early once
	// ctx is done, so perr is ctx's error here.
	for k, ok := range ran {
		if !ok {
			i := pending[k]
			errs[i] = specs[i].laneError(i, perr)
		}
	}
	// Resolve in-call duplicates against their primaries.
	for i, j := range dups {
		if le, ok := errs[j].(*LaneError); ok {
			errs[i] = specs[i].laneError(i, le.Err)
			continue
		}
		results[i] = results[j]
	}
	return results, errs
}

// RunOne runs a single spec through RunCtx and returns the failure's
// cause rather than its *LaneError, so a one-off simulation reports
// the same error a plain System.Run would while still counting in the
// dedup statistics.
func (r *Runner) RunOne(ctx context.Context, sp LaneSpec) (Result, error) {
	res, errs := r.RunCtx(ctx, []LaneSpec{sp})
	if le, ok := errs[0].(*LaneError); ok {
		return Result{}, le.Err
	}
	return res[0], nil
}

// DedupStats is the package-wide dedup telemetry snapshot exposed on
// /metrics.
type DedupStats struct {
	// Hits counts specs served by dedup (result cache or in-call
	// duplicate); Misses counts specs actually simulated.
	Hits   uint64
	Misses uint64
}

var dedup struct {
	hits, misses atomic.Uint64
}

// ReadDedupStats snapshots the dedup counters.
func ReadDedupStats() DedupStats {
	return DedupStats{Hits: dedup.hits.Load(), Misses: dedup.misses.Load()}
}
