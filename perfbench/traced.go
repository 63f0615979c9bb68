package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cryowire"
	"cryowire/internal/circuit"
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
	"cryowire/internal/wire"
	"cryowire/internal/workload"
)

// traceServeSeconds sizes the serve pass of a traced run.
const traceServeSeconds = 20

// component is one part of the traced suite. Every traced run runs all
// of them, so every workload reports every per-layer metric; the
// workload's own component also runs once untraced first, which gives
// the tracing overhead.
type component struct {
	name string
	run  func(ctx context.Context, o opts, tr *tracer, parent int, res *result) time.Duration
}

var components = []component{
	{"experiments", traceExperiments},
	{"dse", traceDSE},
	{"serve", traceServe},
	{"probes", traceProbes},
}

// ownComponent maps a workload to the component that exercises it.
var ownComponent = map[string]string{"paper-quick": "experiments", "dse-full": "dse", "serve-mixed": "serve"}

// runTraced runs the traced suite and derives the per-layer metrics,
// self time per layer and the tracing overhead; spans are written to
// the state directory.
func runTraced(ctx context.Context, o opts, res *result) {
	own := ownComponent[o.Workload]
	var base time.Duration
	for _, c := range components {
		if c.name == own {
			// Untraced baseline of the same work; its checks count too.
			base = c.run(ctx, o, nil, 0, res)
		}
	}
	tr := newTracer()
	for _, c := range components {
		root := tr.begin(0, "harness", c.name, c.name)
		took := c.run(ctx, o, tr, root, res)
		tr.end(root)
		if c.name == own && base > 0 {
			res.Metrics.set("trace.overhead_frac", "frac", took.Seconds()/base.Seconds()-1)
		}
	}
	self := selfTimes(tr.snapshot())
	for _, l := range layers {
		res.Metrics.set("self."+l+"_s", "s", self[l].Seconds())
	}
	file := filepath.Join(stateDir(), "traces", o.Workload+"-seed"+strconv.FormatInt(o.Seed, 10)+".json")
	if err := tr.write(file); err != nil {
		res.fail("writing spans: %v", err)
	}
	res.Aux["trace_file"] = file
}

// traceExperiments is the per-experiment registry pass: one span per
// experiment, checked against the registry digests.
func traceExperiments(ctx context.Context, o opts, tr *tracer, parent int, res *result) time.Duration {
	seed := simSeed(o.Seed)
	chk, err := newPaperChecker(seed)
	if err != nil {
		res.fail("%v", err)
		return 0
	}
	reps, errs, durs, wall, st := experimentsPass(ctx, seed, o.Workers, tr, parent)
	chk.check(reps, errs, res)
	if tr == nil {
		return wall
	}
	var rest time.Duration
	named := map[string]bool{}
	for _, id := range namedExperiments {
		named[id] = true
		res.Metrics.set("experiments."+id+".s", "s", durs[id].Seconds())
	}
	for id, d := range durs {
		if !named[id] {
			rest += d
		}
	}
	res.Metrics.set("experiments.rest.s", "s", rest.Seconds())
	if total := st.Hits + st.Misses; total > 0 {
		res.Metrics.set("platform.hit_frac", "frac", float64(st.Hits)/float64(total))
	}
	var ivs []interval
	for _, s := range tr.snapshot() {
		if s.Parent == parent && s.Layer == "experiments" {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	res.Metrics.set("trace.experiments_cover_frac", "frac", covered(ivs).Seconds()/wall.Seconds())
	return wall
}

// traceDSE is one dse-full pass with its batch timing.
func traceDSE(ctx context.Context, o opts, tr *tracer, parent int, res *result) time.Duration {
	seed := simSeed(o.Seed)
	chk, err := newDSEChecker(seed)
	if err != nil {
		res.fail("%v", err)
		return 0
	}
	dir := tempDir(res, "dse-")
	if dir == "" {
		return 0
	}
	defer removeDir(dir)
	run, err := dsePass(ctx, dseConfig(seed, o.Workers), dir, 0, tr, parent)
	chk.check(run, err, res)
	if err != nil || tr == nil {
		return run.grid
	}
	res.Metrics.set("dse.ms_per_point", "ms", run.grid.Seconds()*1e3/float64(run.evaluated))
	res.Metrics.set("dse.batch_gap_ms", "ms", median(run.batchGaps))
	res.Metrics.set("dse.replay_ms_per_entry", "ms", run.resume.Seconds()*1e3/float64(run.resumed))
	res.Metrics.set("dse.evaluated", "count", float64(run.evaluated))
	res.Metrics.set("dse.frontier_size", "count", float64(run.frontierSize))
	return run.grid
}

// traceServe is a shortened serve-mixed pass on a fresh server; it
// yields the server.*, jobs.* and gen.* rows.
func traceServe(ctx context.Context, o opts, tr *tracer, parent int, res *result) time.Duration {
	p := serveParamsFor(o.Conns, traceServeSeconds)
	e, err := startServer(ctx, o.Conns)
	if err != nil {
		res.fail("serve-mixed: %v", err)
		return 0
	}
	start := time.Now()
	run := servePass(ctx, e, p, o.Seed, nil, tr, parent)
	took := time.Since(start)
	if err := e.close(); err != nil && !errors.Is(err, context.Canceled) {
		res.fail("serve-mixed: shutdown: %v", err)
	}
	checkServe(ctx, run, o.Seed, res)
	if tr == nil {
		return took
	}
	byRoute := map[string][]float64{}
	var late []float64
	for _, st := range []string{"low", "high"} {
		for i, out := range run.outs[st] {
			r := run.stages[st][i]
			byRoute[r.Route] = append(byRoute[r.Route], float64(out.lat)/1e6)
			late = append(late, float64(out.late)/1e6)
		}
	}
	var submits, runs []float64
	for _, j := range run.jobs {
		submits = append(submits, ms(j.submit)...)
		runs = append(runs, j.run.Seconds())
		byRoute["jobs_get"] = append(byRoute["jobs_get"], j.polls...)
	}
	byRoute["jobs_submit"] = submits
	for _, route := range serverRoutes {
		res.Metrics.set("server."+route+".p50_ms", "ms", median(byRoute[route]))
		res.setTail("server."+route+".tail_ms", byRoute[route])
	}
	m := run.metrics
	if lookups := m["cryowire_response_cache_hits_total"] + m["cryowire_response_cache_misses_total"]; lookups > 0 {
		res.Metrics.set("server.cache_hit_frac", "frac", m["cryowire_response_cache_hits_total"]/lookups)
	}
	if n := m["cryowire_http_requests_total"]; n > 0 {
		rej := m["cryowire_http_rejected_busy_total"] + m["cryowire_http_rejected_draining_total"] + m["cryowire_http_rate_limited_total"]
		res.Metrics.set("server.rejected_frac", "frac", rej/n)
	}
	res.Metrics.set("jobs.submit_ms", "ms", median(submits))
	res.Metrics.set("jobs.run_s", "s", median(runs))
	res.setTail("gen.late_tail_ms", late)
	return took
}

// probeReps is how many times each layer probe repeats; it reports the
// median.
const probeReps = 3

// traceProbes times single layers directly: platform derivation, the
// circuit solver, NoC stepping and construction, and the full-system
// cycle loop.
func traceProbes(ctx context.Context, o opts, tr *tracer, parent int, res *result) time.Duration {
	start := time.Now()
	probePlatform(tr, parent, res)
	if err := probeCircuit(tr, parent, res); err != nil {
		res.fail("circuit probe: %v", err)
	}
	probeNoC(tr, parent, res)
	if err := probeSim(ctx, tr, parent, res); err != nil {
		res.fail("sim probe: %v", err)
	}
	return time.Since(start)
}

// probePlatform derives a fixed set of physics on fresh platforms.
func probePlatform(tr *tracer, parent int, res *result) {
	var samples []float64
	for i := 0; i < probeReps; i++ {
		p := platform.New()
		t := time.Now()
		sp := tr.begin(parent, "platform", "cold-derive", "platform-"+strconv.Itoa(i))
		op := noc.Op77()
		_ = p.MeshTiming(op, 1)
		_ = p.BusTiming(op)
		_ = p.Baseline300()
		_ = p.CryoSP()
		_ = p.CHPCore()
		_ = p.ForwardingSpeedup(phys.T77)
		tr.end(sp)
		samples = append(samples, float64(time.Since(t))/1e6)
	}
	res.Metrics.set("platform.cold_derive_ms", "ms", median(samples))
	res.Attempted++
}

// probeCircuit times the pooled solver on the representative repeater
// ladder.
func probeCircuit(tr *tracer, parent int, res *result) error {
	res.Attempted++
	ladder := circuit.WireLadder(
		wire.Line{Spec: wire.Global, LengthMM: 1.0, Driver: wire.CryoBusLink().Driver, DriverSize: 1},
		wire.At77(), phys.DefaultMOSFET(), 40)
	want, err := ladder.Delay50()
	if err != nil {
		return err
	}
	const n = 50
	var ns, allocs []float64
	for i := 0; i < probeReps; i++ {
		sp := tr.begin(parent, "circuit", "delay50", "circuit-"+strconv.Itoa(i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		for k := 0; k < n; k++ {
			d, err := ladder.Delay50()
			if err != nil || d != want {
				tr.end(sp)
				return fmt.Errorf("Delay50 = %v, %v; want %v", d, err, want)
			}
		}
		ns = append(ns, float64(time.Since(t))/n)
		runtime.ReadMemStats(&after)
		tr.end(sp)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/n)
	}
	res.Metrics.set("circuit.delay50_ns", "ns", median(ns))
	res.Metrics.set("circuit.delay50_allocs", "count", median(allocs))
	return nil
}

// nocProbe is one load-latency measurement at a single rate.
type nocProbe struct {
	name            string
	mk              func() noc.Network
	rate            float64
	warmup, measure int
}

// probeNoC measures nanoseconds per simulated network cycle (injection
// generator included, as the sweeps pay it) and 256-node construction.
func probeNoC(tr *tracer, parent int, res *result) {
	pf := platform.New()
	op := noc.Op77()
	mesh1 := pf.MeshTiming(op, 1)
	bus := pf.BusTiming(op)
	probes := []nocProbe{
		{"mesh256_low", func() noc.Network { return noc.NewMesh(256, mesh1) }, 0.005, 600, 2000},
		{"hybrid256_sat", func() noc.Network { return noc.NewHybridCryoBus(bus, mesh1) }, 0.02, 300, 1000},
		{"mesh64_low", func() noc.Network { return noc.NewMesh(64, mesh1) }, 0.01, 2000, 8000},
		{"cryobus64", func() noc.Network { return noc.NewCryoBus(64, bus) }, 0.01, 2000, 8000},
	}
	for _, p := range probes {
		var samples []float64
		for i := 0; i < probeReps; i++ {
			res.Attempted++
			var net noc.Network
			sp := tr.begin(parent, "noc", p.name, "noc-"+p.name+"-"+strconv.Itoa(i))
			t := time.Now()
			pts := noc.LoadLatency(func() noc.Network { net = p.mk(); return net },
				noc.SweepConfig{Pattern: noc.Uniform{}, Rates: []float64{p.rate}, WarmupCycles: p.warmup, MeasureCycles: p.measure, Seed: 1})
			took := time.Since(t)
			tr.end(sp)
			if len(pts) != 1 || net == nil || net.Cycle() == 0 {
				res.fail("noc probe %s: no measurement", p.name)
				continue
			}
			samples = append(samples, float64(took)/float64(net.Cycle()))
		}
		res.Metrics.set("noc."+p.name+".ns_per_cycle", "ns", median(samples))
	}
	const builds = 20
	var us []float64
	for i := 0; i < builds; i++ {
		sp := tr.begin(parent, "noc", "build-mesh256", "noc-build-"+strconv.Itoa(i))
		t := time.Now()
		n := noc.NewMesh(256, mesh1)
		us = append(us, float64(time.Since(t))/1e3)
		tr.end(sp)
		if n.Nodes() != 256 {
			res.fail("noc probe: mesh has %d nodes", n.Nodes())
		}
	}
	res.Attempted++
	res.Metrics.set("noc.mesh256_build_us", "us", median(us))
}

// probeSim times the steady-state cycle loop of a mesh and a bus
// design and one quick facade simulation.
func probeSim(ctx context.Context, tr *tracer, parent int, res *result) error {
	loops := []struct {
		name string
		mk   func(*sim.Factory) sim.Design
		wl   string
	}{
		{"mesh_ferret", (*sim.Factory).CHPMesh, "ferret"},
		{"bus_streamcluster", (*sim.Factory).CryoSPCryoBus, "streamcluster"},
	}
	const warm, steps = 4000, 5000
	for _, l := range loops {
		res.Attempted++
		p, err := workload.ByName(l.wl)
		if err != nil {
			return err
		}
		sp := tr.begin(parent, "sim", "new-"+l.name, "sim-"+l.name)
		s, err := sim.New(l.mk(sim.NewFactory()), p, sim.Config{WarmupCycles: 1, MeasureCycles: 1, Seed: 1})
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(parent, "sim", "warm-"+l.name, "sim-"+l.name)
		for i := 0; i < warm; i++ {
			s.Step()
		}
		tr.end(sp)
		var ns, allocs []float64
		for r := 0; r < probeReps; r++ {
			sp := tr.begin(parent, "sim", "step-"+l.name, "sim-"+l.name)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t := time.Now()
			for i := 0; i < steps; i++ {
				s.Step()
			}
			ns = append(ns, float64(time.Since(t))/steps)
			runtime.ReadMemStats(&after)
			tr.end(sp)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/steps)
		}
		res.Metrics.set("sim."+l.name+".ns_per_cycle", "ns", median(ns))
		if l.name == "mesh_ferret" {
			res.Metrics.set("sim.allocs_per_cycle", "count", median(allocs))
		}
	}
	design := sim.NewFactory().CHPMesh()
	w, err := cryowire.WorkloadByName("ferret")
	if err != nil {
		return err
	}
	cfg := cryowire.QuickOptions().Sim
	var msS []float64
	var first float64
	for r := 0; r < probeReps; r++ {
		res.Attempted++
		sp := tr.begin(parent, "sim", "simulate", "simulate-"+strconv.Itoa(r))
		t := time.Now()
		out, err := cryowire.SimulateCtx(ctx, design, w, cfg)
		msS = append(msS, float64(time.Since(t))/1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
		if r == 0 {
			first = out.IPC
		} else if out.IPC != first || math.IsNaN(first) {
			res.fail("sim probe: Simulate is not deterministic (IPC %v vs %v)", out.IPC, first)
		}
	}
	res.Metrics.set("sim.simulate_ms", "ms", median(msS))
	return nil
}
