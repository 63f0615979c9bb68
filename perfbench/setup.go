package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Set-up samples: setupFirst fresh processes before the first pass,
// then setupBetween before each later pass, so the median of setup_s
// spans the whole run rather than one moment of the host's load.
const (
	setupFirst   = 5
	setupBetween = 2
)

// setupSampler collects set-up samples a few at a time; the first
// error stops it.
type setupSampler struct {
	ctx     context.Context
	o       opts
	samples []float64
	err     error
}

// take measures n more fresh set-ups.
func (s *setupSampler) take(n int) {
	if s.err != nil {
		return
	}
	xs, err := measureSetup(s.ctx, s.o, n)
	s.samples = append(s.samples, xs...)
	s.err = err
}

// measureSetup starts the benchmark itself n times in set-up probe
// mode and returns, per child, the seconds from just before the process
// was started to the moment it was ready for its first timed call.
func measureSetup(ctx context.Context, o opts, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--setup-probe", "--workload", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10),
		"--workers", strconv.Itoa(o.Workers), "--conns", strconv.Itoa(o.Conns)}
	var out []float64
	for i := 0; i < n; i++ {
		var stdout bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", stdout.String())
		}
		out = append(out, time.Unix(0, ready).Sub(start).Seconds())
	}
	return out, nil
}

// setupProbeMain is the child side: do the workload's set-up, print
// the wall-clock time it became ready, tear down and exit.
func setupProbeMain(ctx context.Context, o opts) int {
	teardown, err := setupWorkload(ctx, o)
	ready := time.Now().UnixNano()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Println(ready)
	if err := teardown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: tear-down: %v\n", err)
		return 1
	}
	return 0
}

// setupWorkload does everything a workload does before its first timed
// call and returns how to undo it.
func setupWorkload(ctx context.Context, o opts) (func() error, error) {
	none := func() error { return nil }
	switch o.Workload {
	case "paper-quick":
		if _, err := newPaperChecker(simSeed(o.Seed)); err != nil {
			return none, err
		}
		paperOptions(simSeed(o.Seed), o.Workers) // the first pass's options and fresh platform
		return none, nil
	case "dse-full":
		if _, err := newDSEChecker(simSeed(o.Seed)); err != nil {
			return none, err
		}
		dir, err := os.MkdirTemp(tempRoot(), "dse-")
		if err != nil {
			return none, err
		}
		cfg := dseConfig(simSeed(o.Seed), o.Workers)
		if err := cfg.Space.Validate(); err != nil {
			os.RemoveAll(dir)
			return none, err
		}
		return func() error { return os.RemoveAll(dir) }, nil
	case "serve-mixed":
		e, err := startServer(ctx, o.Conns)
		if err != nil {
			return none, err
		}
		return e.close, nil
	}
	return none, fmt.Errorf("unknown workload %q", o.Workload)
}
