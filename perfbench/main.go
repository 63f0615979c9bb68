// Command perfbench is CryoWire's end-to-end and per-layer benchmark.
// It runs one workload per process and prints, as its last line, one
// JSON object with the run's correctness, operation counts and
// metrics; the line before it carries the full result (provenance,
// workload parameters, every auxiliary figure). See README.md.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh report -runs 10 -out .bench_build/results/mine
//	bash perfbench/run.sh report -from .bench_build/results/mine
//	bash perfbench/run.sh compare -parent dirA -change dirB
//	bash perfbench/run.sh record-digests > perfbench/digests.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"paper-quick", "all 34 registry experiments at QuickOptions through RunAllExperimentsCtx: what reproducing the paper costs; the NoC sweeps set its time"},
	{"dse-full", "the exhaustive 576-point DSE grid at quick sim lengths, journaled then resumed: full-system sim throughput plus journal writes and replay"},
	{"serve-mixed", "seeded open-loop traffic of LRU hits, fresh simulate and load-latency computations and durable DSE jobs against the in-process HTTP server"},
}

// opts are one run's arguments.
type opts struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Workers  int
	Conns    int
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "report":
			return reportMain(args[1:])
		case "compare":
			return compareMain(args[1:])
		case "record-digests":
			return recordMain(args[1:])
		}
	}
	return runMain(args)
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	var probe bool
	nproc := runtime.NumCPU()
	fs.StringVar(&o.Workload, "workload", "", "workload: paper-quick, dse-full or serve-mixed")
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed; the program sees only the inputs generated from it")
	fs.IntVar(&o.Seconds, "seconds", 30, "measurement budget of the run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer suite instead of the timed passes")
	fs.IntVar(&o.Workers, "workers", nproc, "worker count handed to the program (at most nproc)")
	fs.IntVar(&o.Conns, "conns", nproc, "client connections for serve-mixed (at most nproc)")
	fs.BoolVar(&probe, "setup-probe", false, "internal: run only the workload's set-up, report when it is ready, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == o.Workload }) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.Workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.Trace = trace == 1
	if o.Seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be >= 1\n")
		return 2
	}
	if o.Workers < 1 || o.Workers > nproc || o.Conns < 1 || o.Conns > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: workers (%d) and connections (%d) must be between 1 and nproc (%d)\n", o.Workers, o.Conns, nproc)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if probe {
		return setupProbeMain(ctx, o)
	}

	res := newResult(o)
	start := time.Now()
	if o.Trace {
		runTraced(ctx, o, res)
	} else {
		runTimed(ctx, o, res)
	}
	res.ElapsedS = time.Since(start).Seconds()
	return res.emit(os.Stdout)
}

// runTimed measures the end-to-end metrics: the workload's passes
// until the budget is spent, with set-up measured in fresh child
// processes before the first pass and between later ones.
func runTimed(ctx context.Context, o opts, res *result) {
	su := &setupSampler{ctx: ctx, o: o}
	su.take(setupFirst)
	between := func() { su.take(setupBetween) }
	steal := stealSeconds()
	budget := time.Duration(o.Seconds) * time.Second
	switch o.Workload {
	case "paper-quick":
		timedPaper(ctx, o, budget, between, res)
	case "dse-full":
		timedDSE(ctx, o, budget, between, res)
	case "serve-mixed":
		timedServe(ctx, o, budget, between, res)
	}
	res.Aux["host_steal_s"] = stealSeconds() - steal
	if su.err != nil {
		res.fail("setup: %v", su.err)
	} else {
		res.Metrics.set("setup_s", "s", median(su.samples))
		res.Aux["setup_samples"] = su.samples
	}
	res.Metrics.set("max_rss_mb", "MB", maxRSSMB())
	res.Metrics.set("failed_frac", "frac", res.failedFrac())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// The fewest timed passes a run makes after its untimed warm-up pass:
// registry passes or grid runs, and serve-mixed drains.
const (
	minTimedPasses = 2
	minTimedDrains = 3
)

// repeatPasses runs pass until the budget is spent: a new pass starts
// only while the previous pass's duration still fits in what is left,
// and at least minPasses run. It stops early on a pass error or when
// ctx is done.
func repeatPasses(ctx context.Context, budget time.Duration, minPasses int, pass func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start)+last > budget {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// result is everything one run measured and checked.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Params     map[string]any     `json:"params"`
	Metrics    metrics            `json:"metrics"`
	Tails      map[string]tailRow `json:"tails,omitempty"`
	Aux        map[string]any     `json:"aux"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	ElapsedS   float64            `json:"elapsed_s"`
}

// tailRow records which percentile a *_tail_ms value is and how many
// samples it was taken from.
type tailRow struct {
	Pct     float64 `json:"pct"`
	Samples int     `json:"samples"`
}

func newResult(o opts) *result {
	return &result{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Provenance: collectProvenance(o),
		Params:     map[string]any{"workers": o.Workers, "connections": o.Conns},
		Metrics:    metrics{},
		Tails:      map[string]tailRow{},
		Aux:        map[string]any{},
	}
}

// maxErrors bounds the error messages kept in a result.
const maxErrors = 20

// fail records one failed or wrong-output operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// setTail records the tail-rule value of xs (in ms) under name. Below
// 20 samples the rule's percentile would fall under the median, so the
// maximum is reported instead, marked by pct = 100; Tails keeps the
// percentile and sample count either way.
func (r *result) setTail(name string, xs []float64) {
	if len(xs) == 0 {
		r.fail("%s: no samples", name)
		return
	}
	v, pct, ok := tail(xs)
	if !ok || pct < 50 {
		v, pct = sorted(xs)[len(xs)-1], 100
	}
	r.Metrics.set(name, "ms", v)
	r.Tails[name] = tailRow{Pct: pct, Samples: len(xs)}
}

// emit prints the full result and then the summary line, and
// returns the exit code: non-zero when any check failed.
func (r *result) emit(w *os.File) int {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	picked, missing := r.Metrics.pick(defs)
	for _, name := range missing {
		r.fail("metric %s was not measured", name)
	}
	if r.Attempted == 0 {
		r.fail("no operation was attempted")
		r.Attempted = 1
	}
	correct := r.Failed == 0
	full, err := json.Marshal(map[string]any{"perfbench": r})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	summary, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   picked,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n%s\n", full, summary)
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or gave wrong output: %s\n",
			r.Failed, r.Attempted, strings.Join(r.Errors, "; "))
		return 1
	}
	return 0
}
