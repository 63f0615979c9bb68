package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// request is one scheduled HTTP call of serve-mixed. It is generated
// from the workload seed alone; the server sees only the call.
type request struct {
	Stage  string        `json:"stage"`
	Class  string        `json:"class"` // "hot" or "cold"
	Route  string        `json:"route"`
	Method string        `json:"method"`
	Path   string        `json:"path"`
	Body   string        `json:"body,omitempty"`
	Due    time.Duration `json:"due_ns"`
	// Hot indexes hotKeys for a hot read, -1 otherwise.
	Hot int `json:"hot"`
	// Pair, SimSeed and Rate are the fresh inputs of a cold request,
	// kept so its response can be recomputed through the facade.
	Pair    int     `json:"pair,omitempty"`
	SimSeed int64   `json:"sim_seed,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
}

// hotKey is a read the server answers from its LRU once primed. Every
// parameter is explicit so the facade call that must reproduce the
// body is unambiguous.
type hotKey struct {
	Route, Method, Path, Body string
}

var hotKeys = []hotKey{
	{"experiments", "POST", "/v1/experiments/fig5", `{"quick":true}`},
	{"experiments", "POST", "/v1/experiments/table1", `{"quick":true}`},
	{"experiments", "POST", "/v1/experiments/table2", `{"quick":true}`},
	{"wire", "GET", "/v1/wire/speedup?class=global&length_mm=10&temp_k=77&repeated=true", ""},
	{"wire", "GET", "/v1/wire/speedup?class=semi-global&length_mm=1&temp_k=77&repeated=false", ""},
	{"wire", "GET", "/v1/wire/speedup?class=local&length_mm=0.1&temp_k=100&repeated=false", ""},
	{"temperature", "GET", "/v1/temperature-sweep?temps_k=300,250,200,150,125,100,90,77", ""},
	{"temperature", "GET", "/v1/temperature-sweep?temps_k=300,77", ""},
}

// coldSims are the design × workload pairs cold /v1/simulate requests
// rotate through: one bus design, one mesh design.
var coldSims = []struct{ Design, Workload string }{
	{"CryoSP (77K, CryoBus)", "streamcluster"},
	{"CHP-core (77K, Mesh)", "ferret"},
}

// Cold request sizes: quick simulation lengths, and one injection rate
// on the 64-node mesh, nudged per request so each has a fresh cache key
// while doing the same amount of work.
const (
	coldWarmup  = 1200
	coldMeasure = 5000
	nocBaseRate = 0.01
	nocRateStep = 1e-7
)

// mix is the share of each request kind.
type mix struct {
	Hot float64 `json:"hot"`
	Sim float64 `json:"simulate"`
	NoC float64 `json:"noc"`
}

// counts splits n requests by the mix exactly, so every stage of every
// seed does the same amount of work.
func (m mix) counts(n int) (hot, sim, noc int) {
	hot = int(math.Round(float64(n) * m.Hot))
	sim = int(math.Round(float64(n) * m.Sim))
	if hot+sim > n {
		sim = n - hot
	}
	return hot, sim, n - hot - sim
}

// generator draws serve-mixed requests from a seed.
type generator struct {
	rng        *rand.Rand
	seedBase   int64
	nocBase    int
	sims, nocs int
}

func newGenerator(seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{rng: rng, seedBase: 2 + rng.Int63n(1<<40), nocBase: rng.Intn(1000)}
}

// stage schedules rps × seconds requests at a fixed spacing, in seeded
// order.
func (g *generator) stage(name string, rps, seconds float64, m mix) []request {
	reqs := g.batch(name, int(math.Round(rps*seconds)), m)
	for i := range reqs {
		reqs[i].Due = time.Duration(float64(i) / rps * float64(time.Second))
	}
	return reqs
}

// batch draws n requests of the mix in seeded order, all due at once.
func (g *generator) batch(name string, n int, m mix) []request {
	hot, sim, noc := m.counts(n)
	kinds := make([]byte, 0, n)
	for _, k := range []struct {
		kind byte
		n    int
	}{{'h', hot}, {'s', sim}, {'n', noc}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]request, len(kinds))
	for i, k := range kinds {
		switch k {
		case 'h':
			reqs[i] = g.hot()
		case 's':
			reqs[i] = g.sim()
		default:
			reqs[i] = g.noc()
		}
		reqs[i].Stage = name
	}
	return reqs
}

func (g *generator) hot() request {
	k := g.rng.Intn(len(hotKeys))
	h := hotKeys[k]
	return request{Class: "hot", Route: h.Route, Method: h.Method, Path: h.Path, Body: h.Body, Hot: k}
}

func (g *generator) sim() request {
	pair := g.sims % len(coldSims)
	seed := g.seedBase + int64(g.sims)
	g.sims++
	p := coldSims[pair]
	body := fmt.Sprintf(`{"design":%q,"workload":%q,"config":{"warmup_cycles":%d,"measure_cycles":%d,"seed":%d}}`,
		p.Design, p.Workload, coldWarmup, coldMeasure, seed)
	return request{Class: "cold", Route: "simulate", Method: "POST", Path: "/v1/simulate", Body: body, Hot: -1, Pair: pair, SimSeed: seed}
}

func (g *generator) noc() request {
	g.nocs++
	rate := nocBaseRate + float64(g.nocBase+g.nocs)*nocRateStep
	path := "/v1/noc/load-latency?design=mesh&pattern=uniform&temp_k=77&rates=" + strconv.FormatFloat(rate, 'g', -1, 64)
	return request{Class: "cold", Route: "noc", Method: "GET", Path: path, Hot: -1, Rate: rate}
}
