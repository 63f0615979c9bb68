package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cryowire"
	"cryowire/internal/server"
)

// serveParams are serve-mixed's fixed parameters. The rates were sized
// on a 2-core host to about 25 % and 60 % of the drain capacity of this
// mix (see README.md); the latency limits are what slo_miss_frac
// counts against.
type serveParams struct {
	LowRPS      float64            `json:"low_rps"`
	HighRPS     float64            `json:"high_rps"`
	StageS      float64            `json:"stage_s"`
	DrainBudget float64            `json:"drain_budget_s"`
	DrainN      int                `json:"drain_requests"`
	Conns       int                `json:"connections"`
	Mix         mix                `json:"mix"`
	LimitsMS    map[string]float64 `json:"slo_limits_ms"`
	JobDelayS   float64            `json:"job_delay_s"`
}

// serveMix is an assumed mix, not one taken from a user trace; the
// repository documents none. README.md gives the reason for each share.
var serveMix = mix{Hot: 0.7, Sim: 0.2, NoC: 0.1}

// serveLimitsMS are the per-class latency limits.
var serveLimitsMS = map[string]float64{"hot": 50, "cold": 1000}

// serveParamsFor sizes a pass to the time budget: two open-loop stages
// of 15 % of it each, and drains, which wall_s is taken from, filling
// most of the rest.
func serveParamsFor(conns int, seconds float64) serveParams {
	return serveParams{
		LowRPS:      30,
		HighRPS:     75,
		StageS:      0.15 * seconds,
		DrainBudget: 0.6 * seconds,
		DrainN:      240,
		Conns:       conns,
		Mix:         serveMix,
		LimitsMS:    serveLimitsMS,
		JobDelayS:   0.2 * 0.15 * seconds,
	}
}

// jobBody is the quick-grid job serve-mixed submits.
func jobBody(seed int64) string {
	return fmt.Sprintf(`{"quick":true,"config":{"seed":%d}}`, seed)
}

// serveEnv is a running in-process server and the client that drives
// it over loopback TCP.
type serveEnv struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	dir    string
}

// startServer is serve-mixed's set-up: a server with a durable job
// store in a fresh temp dir, serving on a loopback port, polled until
// /readyz answers OK.
func startServer(ctx context.Context, conns int) (*serveEnv, error) {
	dir, err := os.MkdirTemp(tempRoot(), "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Addr:    "127.0.0.1:0",
		JobsDir: filepath.Join(dir, "jobs"),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	e := &serveEnv{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
		dir:    dir,
	}
	go func() { e.done <- srv.Serve(sctx, ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, err := e.do(ctx, "GET", "/readyz", "")
		if err == nil && status == http.StatusOK {
			return e, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			e.close()
			return nil, fmt.Errorf("server never became ready (last status %d, err %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the server, waits for Serve to return and removes its
// job store.
func (e *serveEnv) close() error {
	e.cancel()
	err := <-e.done
	e.client.CloseIdleConnections()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// do performs one call and returns its status and body.
func (e *serveEnv) do(ctx context.Context, method, p, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.base+p, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is one executed request.
type outcome struct {
	lat    time.Duration // from due time to the full response
	late   time.Duration // how late the generator released it
	status int
	err    error
	sum    string // SHA-256 of a hot response body
	body   []byte // kept only for cold responses chosen for a facade check
}

// execute runs reqs on conns client goroutines. Each request is
// released at start+Due (open loop: a stall delays later requests and
// the delay is counted); requests all due at 0 make a closed-loop
// batch. keep selects cold responses whose body is kept for checking.
func (e *serveEnv) execute(ctx context.Context, reqs []request, conns int, keep func(i int) bool, tr *tracer, parent int) []outcome {
	outs := make([]outcome, len(reqs))
	work := make(chan int, len(reqs)) // one slot per request: release never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := &reqs[i]
				sp := tr.begin(parent, "server", r.Route, r.Stage+"-"+strconv.Itoa(i))
				status, body, err := e.do(ctx, r.Method, r.Path, r.Body)
				tr.end(sp)
				o := &outs[i]
				o.lat = time.Since(start.Add(r.Due))
				o.status, o.err = status, err
				switch {
				case r.Class == "hot":
					o.sum = sha(body)
				case keep != nil && keep(i):
					o.body = body
				case err == nil && !json.Valid(body):
					o.err = fmt.Errorf("invalid JSON body")
				}
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		outs[i].late = time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return outs
}

// jobRun is one DSE job from submission to observed completion.
type jobRun struct {
	submit time.Duration
	total  time.Duration
	run    time.Duration // state.updated - state.created
	polls  []float64     // GET latencies in ms
	result []byte
	err    error
}

// runJob submits a quick-grid job, polls it until done and fetches its
// result.
func (e *serveEnv) runJob(ctx context.Context, body string, tr *tracer, parent int, id string) (j jobRun) {
	sp := tr.begin(parent, "jobs", "dse-job", id)
	defer tr.end(sp)
	start := time.Now()
	sub := tr.begin(sp, "server", "jobs_submit", id)
	status, b, err := e.do(ctx, "POST", "/v1/dse/jobs", body)
	tr.end(sub)
	j.submit = time.Since(start)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(b))
	}
	var st struct {
		ID      string    `json:"id"`
		Status  string    `json:"status"`
		Created time.Time `json:"created"`
		Updated time.Time `json:"updated"`
		Error   string    `json:"error"`
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	for err == nil && st.Status != "done" {
		switch st.Status {
		case "failed", "canceled", "interrupted":
			err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
			continue
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-time.After(20 * time.Millisecond):
		}
		t := time.Now()
		poll := tr.begin(sp, "server", "jobs_get", id)
		status, b, err = e.do(ctx, "GET", "/v1/dse/jobs/"+url.PathEscape(st.ID), "")
		tr.end(poll)
		j.polls = append(j.polls, float64(time.Since(t))/1e6)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(b, &st)
		}
	}
	j.total = time.Since(start)
	if err != nil {
		j.err = err
		return j
	}
	j.run = st.Updated.Sub(st.Created)
	status, j.result, err = e.do(ctx, "GET", "/v1/dse/jobs/"+url.PathEscape(st.ID)+"/result", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d", status)
	}
	j.err = err
	return j
}

// serveRun is what one serve-mixed pass measured.
type serveRun struct {
	stages  map[string][]request
	outs    map[string][]outcome
	jobs    []jobRun
	drains  []float64          // seconds per drain batch, warm-up drain excluded
	metrics map[string]float64 // counters scraped from /metrics
}

// servePass runs one serve-mixed pass on a started server: prime the
// hot keys, the low and high open-loop stages (one job each), then
// closed-loop drains of a fixed mixed batch until the drain budget is
// spent, calling between (when not nil) before every drain after the
// first. The first drain is a checked but untimed warm-up.
func servePass(ctx context.Context, e *serveEnv, p serveParams, seed int64, between func(), tr *tracer, parent int) serveRun {
	g := newGenerator(seed)
	run := serveRun{stages: map[string][]request{}, outs: map[string][]outcome{}}
	prime := make([]request, len(hotKeys))
	for k, h := range hotKeys {
		prime[k] = request{Stage: "prime", Class: "hot", Route: h.Route, Method: h.Method, Path: h.Path, Body: h.Body, Hot: k}
	}
	run.stages["prime"] = prime
	run.outs["prime"] = e.execute(ctx, prime, 1, nil, tr, parent)

	jb := jobBody(simSeed(seed))
	for _, st := range []struct {
		name string
		rps  float64
	}{{"low", p.LowRPS}, {"high", p.HighRPS}} {
		reqs := g.stage(st.name, st.rps, p.StageS, p.Mix)
		run.stages[st.name] = reqs
		// Recompute the first two simulations and the first
		// load-latency sweep of each stage through the facade.
		keepIdx := map[int]bool{}
		quota := map[string]int{"simulate": 2, "noc": 1}
		for i, r := range reqs {
			if quota[r.Route] > 0 {
				quota[r.Route]--
				keepIdx[i] = true
			}
		}
		keep := func(i int) bool { return keepIdx[i] }
		jobDone := make(chan jobRun, 1)
		go func(name string) {
			select {
			case <-ctx.Done():
				jobDone <- jobRun{err: ctx.Err()}
				return
			case <-time.After(time.Duration(p.JobDelayS * float64(time.Second))):
			}
			jobDone <- e.runJob(ctx, jb, tr, parent, name+"-job")
		}(st.name)
		run.outs[st.name] = e.execute(ctx, reqs, p.Conns, keep, tr, parent)
		run.jobs = append(run.jobs, <-jobDone)
	}

	drainBudget := time.Duration(p.DrainBudget * float64(time.Second))
	_ = repeatPasses(ctx, drainBudget, 1+minTimedDrains, func(k int) error {
		if k > 0 && between != nil {
			between()
		}
		name := "drain" + strconv.Itoa(k)
		reqs := g.batch(name, p.DrainN, p.Mix)
		run.stages[name] = reqs
		t := time.Now()
		run.outs[name] = e.execute(ctx, reqs, p.Conns, nil, tr, parent)
		if k > 0 {
			run.drains = append(run.drains, time.Since(t).Seconds())
		}
		return ctx.Err()
	})
	run.metrics = e.scrape(ctx)
	return run
}

// scrape reads the unlabelled counters of /metrics plus the summed
// request count.
func (e *serveEnv) scrape(ctx context.Context) map[string]float64 {
	out := map[string]float64{}
	status, b, err := e.do(ctx, "GET", "/metrics", "")
	if err != nil || status != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if base, _, labelled := strings.Cut(name, "{"); labelled {
			if base == "cryowire_http_requests_total" {
				out[base] += v
			}
			continue
		}
		out[name] = v
	}
	return out
}

// expectedHot computes, through the facade, the SHA-256 of the body
// each hot key must be answered with.
func expectedHot(ctx context.Context) ([]string, error) {
	sums := make([]string, len(hotKeys))
	for k, h := range hotKeys {
		u, err := url.Parse(h.Path)
		if err != nil {
			return nil, err
		}
		q := u.Query()
		var body []byte
		switch h.Route {
		case "experiments":
			rep, err := cryowire.RunExperimentCtx(ctx, path.Base(u.Path), cryowire.QuickOptions())
			if err != nil {
				return nil, err
			}
			if body, err = rep.JSON(); err != nil {
				return nil, err
			}
			body = append(body, '\n')
		case "wire":
			length, _ := strconv.ParseFloat(q.Get("length_mm"), 64)
			temp, _ := strconv.ParseFloat(q.Get("temp_k"), 64)
			rep, _ := strconv.ParseBool(q.Get("repeated"))
			sp, err := cryowire.WireSpeedupAt(q.Get("class"), length, temp, rep)
			if err != nil {
				return nil, err
			}
			body, err = indented(map[string]any{"class": q.Get("class"), "length_mm": length, "temp_k": temp, "repeated": rep, "speedup": sp})
			if err != nil {
				return nil, err
			}
		case "temperature":
			var temps []float64
			for _, s := range strings.Split(q.Get("temps_k"), ",") {
				t, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, err
				}
				temps = append(temps, t)
			}
			pts, err := cryowire.TemperatureSweep(temps)
			if err != nil {
				return nil, err
			}
			if body, err = indented(map[string]any{"points": pts}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("no facade call for route %q", h.Route)
		}
		sums[k] = sha(body)
	}
	return sums, nil
}

// indented renders v the way the server's JSON endpoints do.
func indented(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// expectedCold recomputes a cold request's body through the facade.
func expectedCold(ctx context.Context, r request) ([]byte, error) {
	switch r.Route {
	case "simulate":
		pair := coldSims[r.Pair]
		var design *cryowire.Design
		for _, d := range cryowire.EvaluationDesigns() {
			if d.Name == pair.Design {
				design = &d
				break
			}
		}
		if design == nil {
			return nil, fmt.Errorf("no evaluation design %q", pair.Design)
		}
		w, err := cryowire.WorkloadByName(pair.Workload)
		if err != nil {
			return nil, err
		}
		res, err := cryowire.SimulateCtx(ctx, *design, w, cryowire.SimConfig{WarmupCycles: coldWarmup, MeasureCycles: coldMeasure, Seed: r.SimSeed})
		if err != nil {
			return nil, err
		}
		return indented(res)
	case "noc":
		pts, err := cryowire.NoCLoadLatencyCtx(ctx, "mesh", "uniform", 77, []float64{r.Rate})
		if err != nil {
			return nil, err
		}
		return indented(map[string]any{"design": "mesh", "pattern": "uniform", "temp_k": 77.0, "points": pts})
	}
	return nil, fmt.Errorf("no facade call for route %q", r.Route)
}

// expectedJob computes the quick-grid result a job must store.
func expectedJob(ctx context.Context, seed int64) ([]byte, error) {
	sim := cryowire.QuickOptions().Sim
	sim.Seed = seed
	res, err := cryowire.RunDSE(ctx, cryowire.DSEConfig{Space: cryowire.DefaultDSESpace(true), Strategy: "grid", Sim: sim})
	if err != nil {
		return nil, err
	}
	return res.JSON()
}

// checkServe counts every request and job of run into res, comparing
// hot bodies with the facade's bytes, the kept cold bodies with a
// facade recomputation, and job results with a direct RunDSE.
func checkServe(ctx context.Context, run serveRun, seed int64, res *result) {
	hot, err := expectedHot(ctx)
	if err != nil {
		res.fail("serve-mixed: facade hot bodies: %v", err)
		return
	}
	for name, outs := range run.outs {
		reqs := run.stages[name]
		for i, o := range outs {
			r := reqs[i]
			res.Attempted++
			switch {
			case o.err != nil:
				res.fail("serve-mixed: %s %s: %v", r.Method, r.Path, o.err)
			case o.status != http.StatusOK:
				res.fail("serve-mixed: %s %s: status %d", r.Method, r.Path, o.status)
			case r.Class == "hot" && o.sum != hot[r.Hot]:
				res.fail("serve-mixed: %s: body differs from the facade's bytes", hotKeys[r.Hot].Path)
			case o.body != nil:
				want, err := expectedCold(ctx, r)
				if err != nil {
					res.fail("serve-mixed: facade %s: %v", r.Route, err)
				} else if !bytes.Equal(want, o.body) {
					res.fail("serve-mixed: %s %s: body differs from the facade's bytes", r.Method, r.Path)
				}
			}
		}
	}
	want, err := expectedJob(ctx, simSeed(seed))
	for _, j := range run.jobs {
		res.Attempted++
		switch {
		case j.err != nil:
			res.fail("serve-mixed: job: %v", j.err)
		case err != nil:
			res.fail("serve-mixed: facade job result: %v", err)
		case !bytes.Equal(bytes.TrimSpace(j.result), bytes.TrimSpace(want)):
			res.fail("serve-mixed: job result differs from RunDSE's bytes")
		}
	}
}

// ms converts durations to milliseconds.
func ms(ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// stageMetrics records one open-loop stage's latency figures.
func stageMetrics(name string, reqs []request, outs []outcome, p serveParams, res *result) {
	byClass := map[string][]float64{}
	miss := 0
	for i, o := range outs {
		c := reqs[i].Class
		l := float64(o.lat) / 1e6
		byClass[c] = append(byClass[c], l)
		if o.err != nil || o.status != http.StatusOK || l > p.LimitsMS[c] {
			miss++
		}
	}
	for _, c := range []string{"hot", "cold"} {
		res.Metrics.set(name+"."+c+"_p50_ms", "ms", median(byClass[c]))
		res.setTail(name+"."+c+"_tail_ms", byClass[c])
	}
	if len(outs) > 0 {
		res.Metrics.set(name+".slo_miss_frac", "frac", float64(miss)/float64(len(outs)))
	}
}

// timedServe is the serve-mixed workload: one pass on a fresh server;
// wall_s is the median drain time of the fixed mixed batch.
func timedServe(ctx context.Context, o opts, budget time.Duration, between func(), res *result) {
	p := serveParamsFor(o.Conns, budget.Seconds())
	res.Params["serve"] = p
	e, err := startServer(ctx, o.Conns)
	if err != nil {
		res.fail("serve-mixed: %v", err)
		return
	}
	run := servePass(ctx, e, p, o.Seed, between, nil, 0)
	if err := e.close(); err != nil && !errors.Is(err, context.Canceled) {
		res.fail("serve-mixed: shutdown: %v", err)
	}
	checkServe(ctx, run, o.Seed, res)
	for _, st := range []string{"low", "high"} {
		stageMetrics(st, run.stages[st], run.outs[st], p, res)
	}
	var jobS []float64
	for _, j := range run.jobs {
		jobS = append(jobS, j.total.Seconds())
	}
	res.Metrics.set("job_s", "s", median(jobS))
	res.Metrics.set("wall_s", "s", median(run.drains))
	res.Metrics.set("drain_rps", "1/s", float64(p.DrainN)/median(run.drains))
	res.Aux["wall_samples"] = run.drains
}
