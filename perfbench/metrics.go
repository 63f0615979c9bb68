package main

import "math"

// metricDef declares one metric the benchmark reports. The end-to-end
// and per-layer tables below are the source of truth; BENCHMARK.json
// at the repository root lists the same names, units and directions
// (a test keeps the two in step) plus the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Why    string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (with tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "process start to the first timed call, median of fresh child processes started before the first pass and between later ones; for serve-mixed it ends when /readyz answers OK"},
	{"wall_s", "s", "lower", "median time of one pass of the workload's fixed work, after an untimed warm-up pass: the quick registry, the journaled 576-point grid, or draining a fixed mixed request batch through the server"},
	{"max_rss_mb", "MB", "lower", "peak resident set of the benchmark process, which hosts the program"},
}

// perLayer are the traced run's metrics: one or more per layer, plus
// the harness's own health figures.
var perLayer = []metricDef{
	{"noc.mesh256_low.ns_per_cycle", "ns", "lower", "router step at low load on 256 nodes (fig26's mesh row, quick cycles)"},
	{"noc.hybrid256_sat.ns_per_cycle", "ns", "lower", "hybrid CryoBus-256 past saturation: fig26's critical path"},
	{"noc.mesh64_low.ns_per_cycle", "ns", "lower", "router step on the 64-node mesh the /v1/noc/load-latency requests build"},
	{"noc.cryobus64.ns_per_cycle", "ns", "lower", "bus step: control for router-only changes"},
	{"noc.mesh256_build_us", "us", "lower", "constructing a 256-node mesh: where construction-time precompute shows"},
	{"sim.mesh_ferret.ns_per_cycle", "ns", "lower", "full-system cycle loop on a mesh design (a quarter of dse-full points)"},
	{"sim.bus_streamcluster.ns_per_cycle", "ns", "lower", "full-system cycle loop on the CryoBus (bus designs are three quarters of dse-full points)"},
	{"sim.allocs_per_cycle", "count", "lower", "heap allocations per simulated cycle in steady state"},
	{"sim.simulate_ms", "ms", "lower", "one quick facade Simulate call including construction, as a cold /v1/simulate pays it"},
	{"circuit.delay50_ns", "ns", "lower", "one transient solve of the representative repeater ladder"},
	{"circuit.delay50_allocs", "count", "lower", "allocations per transient solve"},
	{"platform.cold_derive_ms", "ms", "lower", "deriving the operating points, timings and core columns on a fresh platform"},
	{"platform.hit_frac", "frac", "higher", "derivation cache hit share across one per-experiment registry pass"},
	{"experiments.fig26.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.fig21.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.table3.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.fig23.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.fig25.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.fig24.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.faultsweep.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.abl-interleave.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.dse-pareto.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.fig17.s", "s", "lower", "per-experiment time in the traced registry pass"},
	{"experiments.rest.s", "s", "lower", "summed time of the other 24 experiments"},
	{"dse.ms_per_point", "ms", "lower", "full-grid wall time per evaluated point"},
	{"dse.batch_gap_ms", "ms", "lower", "median gap between checkpoint batches of Progress callbacks"},
	{"dse.replay_ms_per_entry", "ms", "lower", "journal resume time per replayed entry"},
	{"dse.evaluated", "count", "higher", "points the full grid evaluated: exactly 576, must never move"},
	{"dse.frontier_size", "count", "higher", "Pareto frontier size of the full grid: an exact count that must never move"},
	{"server.experiments.p50_ms", "ms", "lower", "hot /v1/experiments/{id} latency from due time"},
	{"server.experiments.tail_ms", "ms", "lower", "hot /v1/experiments/{id} tail latency"},
	{"server.wire.p50_ms", "ms", "lower", "hot /v1/wire/speedup latency from due time"},
	{"server.wire.tail_ms", "ms", "lower", "hot /v1/wire/speedup tail latency"},
	{"server.temperature.p50_ms", "ms", "lower", "hot /v1/temperature-sweep latency from due time"},
	{"server.temperature.tail_ms", "ms", "lower", "hot /v1/temperature-sweep tail latency"},
	{"server.simulate.p50_ms", "ms", "lower", "cold /v1/simulate latency from due time"},
	{"server.simulate.tail_ms", "ms", "lower", "cold /v1/simulate tail latency"},
	{"server.noc.p50_ms", "ms", "lower", "cold /v1/noc/load-latency latency from due time"},
	{"server.noc.tail_ms", "ms", "lower", "cold /v1/noc/load-latency tail latency"},
	{"server.jobs_submit.p50_ms", "ms", "lower", "POST /v1/dse/jobs latency (durable store write)"},
	{"server.jobs_submit.tail_ms", "ms", "lower", "POST /v1/dse/jobs tail latency (the maximum when too few samples)"},
	{"server.jobs_get.p50_ms", "ms", "lower", "GET /v1/dse/jobs/{id} poll latency"},
	{"server.jobs_get.tail_ms", "ms", "lower", "GET /v1/dse/jobs/{id} poll tail latency"},
	{"server.cache_hit_frac", "frac", "higher", "LRU response-cache hit share read from /metrics"},
	{"server.rejected_frac", "frac", "lower", "requests rejected by admission, draining or the job rate limit, read from /metrics"},
	{"jobs.submit_ms", "ms", "lower", "median job submission latency"},
	{"jobs.run_s", "s", "lower", "median job run time from its created to its updated timestamp"},
	{"gen.late_tail_ms", "ms", "lower", "how late the open-loop generator released requests (harness health)"},
	{"trace.overhead_frac", "frac", "lower", "traced pass time over the same pass untraced, minus one (harness health)"},
	{"trace.experiments_cover_frac", "frac", "higher", "share of the traced registry pass covered by per-experiment spans"},
	{"self.noc_s", "s", "lower", "self time of spans into noc"},
	{"self.sim_s", "s", "lower", "self time of spans into sim"},
	{"self.circuit_s", "s", "lower", "self time of spans into circuit"},
	{"self.platform_s", "s", "lower", "self time of spans into platform"},
	{"self.experiments_s", "s", "lower", "self time of spans into experiments"},
	{"self.dse_s", "s", "lower", "self time of spans into dse"},
	{"self.server_s", "s", "lower", "self time of spans into server (client-observed requests)"},
	{"self.jobs_s", "s", "lower", "self time of spans into jobs (submission to observed done)"},
}

// namedExperiments get their own per-layer row; the rest are summed.
var namedExperiments = []string{"fig26", "fig21", "table3", "fig23", "fig25", "fig24", "faultsweep", "abl-interleave", "dse-pareto", "fig17"}

// serverRoutes are the route labels of the server.* rows.
var serverRoutes = []string{"experiments", "wire", "temperature", "simulate", "noc", "jobs_submit", "jobs_get"}

// layers are the program modules the traced run attributes self time
// to.
var layers = []string{"noc", "sim", "circuit", "platform", "experiments", "dse", "server", "jobs"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics accumulates a run's values by name.
type metrics map[string]metric

// set records a value; NaN and infinities (a median of no samples, a
// ratio over nothing) are dropped, so the row shows up as missing.
func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: unit}
}

// pick returns the subset of m named by defs, with the declared units.
// Missing names are reported so a run can never silently drop a row.
func (m metrics) pick(defs []metricDef) (metrics, []string) {
	out := metrics{}
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v.Value, Unit: d.Unit}
	}
	return out, missing
}
