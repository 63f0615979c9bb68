package dse

import (
	"context"
	"errors"
	"time"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// evalOverride, when non-nil, replaces candidate evaluation so tests
// can inject transient failures and observe every attempt.
var evalOverride func(ctx context.Context, pf *platform.Platform, pt Point, prof workload.Profile, cfg sim.Config) (Eval, error)

// evalCandidate is the single-candidate evaluator behind the retry
// policy: the test override when installed, the real pipeline
// otherwise.
func evalCandidate(ctx context.Context, pf *platform.Platform, pt Point, prof workload.Profile, cfg sim.Config) (Eval, error) {
	if evalOverride != nil {
		return evalOverride(ctx, pf, pt, prof, cfg)
	}
	return evaluate(ctx, pf, pt, prof, cfg)
}

// defaultRetryBackoff is the first-retry delay when Config.RetryBackoff
// is unset but retries are enabled.
const defaultRetryBackoff = 100 * time.Millisecond

// retryEval runs one candidate evaluation under the config's bounded
// retry-with-backoff policy. Because evaluation is a pure function of
// (point, sim config), a retried success is bit-equal to a first-try
// success — retries change availability, never the result bytes.
func retryEval(ctx context.Context, cfg Config, pt Point, prof workload.Profile) (Eval, error) {
	attempts := cfg.RetryAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if cfg.RetryNotify != nil {
				cfg.RetryNotify(lastErr)
			}
			t := time.NewTimer(backoff << (a - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return Eval{}, ctx.Err()
			case <-t.C:
			}
		}
		e, err := evalCandidate(ctx, cfg.Platform, pt, prof, cfg.Sim)
		if err == nil {
			return e, nil
		}
		lastErr = err
		if !retryable(ctx, err) {
			break
		}
	}
	return Eval{}, lastErr
}

// retryable reports whether a failed evaluation is worth another
// attempt. Cancellation and deadline errors are terminal — the caller
// is going away, and re-running under a dead context cannot succeed.
// Everything else (an overloaded box stalling the watchdog, a flaky
// filesystem under the platform cache) gets the benefit of the doubt
// up to the attempt bound; deterministic model errors just fail again
// and surface after the bound, so the cost of optimism is bounded too.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
