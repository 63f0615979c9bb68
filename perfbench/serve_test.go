package main

import (
	"context"
	"testing"
)

// TestServePassChecksOut drives a small serve-mixed pass end to end:
// every request, job and facade comparison must pass, and every stage
// must report its latency rows. Run it with -race: the client, the job
// poller and the server share the pass's state.
func TestServePassChecksOut(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs simulations")
	}
	t.Setenv("PERFBENCH_STATE", t.TempDir())
	ctx := context.Background()
	e, err := startServer(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := serveParamsFor(2, 2)
	p.LowRPS, p.HighRPS, p.DrainN = 10, 20, 20
	run := servePass(ctx, e, p, 3, nil, newTracer(), 0)
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: metrics{}, Tails: map[string]tailRow{}}
	checkServe(ctx, run, 3, res)
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
	}
	for _, st := range []string{"low", "high"} {
		stageMetrics(st, run.stages[st], run.outs[st], p, res)
		if _, ok := res.Metrics[st+".hot_p50_ms"]; !ok {
			t.Errorf("%s stage has no hot latency", st)
		}
	}
	if len(run.jobs) != 2 || len(run.drains) < 3 {
		t.Fatalf("%d jobs and %d drains; want 2 and at least 3", len(run.jobs), len(run.drains))
	}
}
