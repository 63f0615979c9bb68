package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"cryowire/internal/jobs"
)

// withObsoleteLanes splices the obsolete batch_lanes field into a JSON
// object body, the way a client written for an older server sends it.
func withObsoleteLanes(body string) string {
	return strings.Replace(body, "{", `{"batch_lanes": 4, `, 1)
}

// TestDSEIgnoresObsoleteLanes: a /v1/dse body that still carries
// batch_lanes decodes, and the value changes nothing — the response is
// byte-identical to the same search without it and is served from the
// one cache entry that search created.
func TestDSEIgnoresObsoleteLanes(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	plain := do(t, h, "POST", "/v1/dse", tinyJobBody())
	if plain.Code != 200 {
		t.Fatalf("plain dse status %d: %s", plain.Code, plain.Body)
	}
	legacy := do(t, h, "POST", "/v1/dse", withObsoleteLanes(tinyJobBody()))
	if legacy.Code != 200 {
		t.Fatalf("dse with batch_lanes status %d: %s", legacy.Code, legacy.Body)
	}
	if !bytes.Equal(plain.Body.Bytes(), legacy.Body.Bytes()) {
		t.Fatalf("batch_lanes changed the response:\nplain:  %s\nlegacy: %s", plain.Body, legacy.Body)
	}
	if got := legacy.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("dse with batch_lanes X-Cache = %q, want hit", got)
	}
	if n := s.cache.Stats().Entries; n != 1 {
		t.Fatalf("response cache holds %d entries, want 1", n)
	}
}

// TestJobAndShardBodiesIgnoreObsoleteLanes: the async job and shard
// endpoints accept bodies carrying batch_lanes and produce the same
// result bytes as the synchronous search.
func TestJobAndShardBodiesIgnoreObsoleteLanes(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()
	search := `{"quick": true, "budget": 4, "workloads": ["x264"],
		"config": {"warmup_cycles": 300, "measure_cycles": 900, "seed": 7}}`
	sync := do(t, h, "POST", "/v1/dse", search)
	if sync.Code != 200 {
		t.Fatalf("sync dse status %d: %s", sync.Code, sync.Body)
	}
	for _, tc := range []struct{ route, body string }{
		{"/v1/dse/jobs", search},
		{"/v1/dse/shards", tinyShardBody()},
	} {
		rec := do(t, h, "POST", tc.route, withObsoleteLanes(tc.body))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s with batch_lanes status %d: %s", tc.route, rec.Code, rec.Body)
		}
		var st jobs.State
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		pollJob(t, h, st.ID, jobs.StatusDone)
		got := do(t, h, "GET", "/v1/dse/jobs/"+st.ID+"/result", "")
		if got.Code != 200 {
			t.Fatalf("%s result status %d: %s", tc.route, got.Code, got.Body)
		}
		if got.Body.String() != sync.Body.String() {
			t.Fatalf("%s result differs from sync response:\nasync: %s\nsync:  %s", tc.route, got.Body, sync.Body)
		}
	}
}

// metricValue reads one unlabelled series from a /metrics body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics missing %s:\n%s", name, body)
	return 0
}

// TestMetricsDedupCounters: /metrics keeps the simulation dedup
// counters under their established names, drops the lockstep batch
// series, and counts a fresh /v1/simulate as a miss.
func TestMetricsDedupCounters(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	before := do(t, h, "GET", "/metrics", "").Body.String()
	metricValue(t, before, "cryowire_sim_batch_cache_hits_total")
	misses := metricValue(t, before, "cryowire_sim_batch_cache_misses_total")
	for _, gone := range []string{
		"cryowire_sim_batches_total",
		"cryowire_sim_batch_lanes_total",
		"cryowire_sim_batch_lane_failures_total",
		"cryowire_sim_batch_lanes ",
		"cryowire_sim_batch_occupancy",
	} {
		if strings.Contains(before, gone) {
			t.Errorf("/metrics still reports %q", gone)
		}
	}

	body := fmt.Sprintf(`{"design":%q,"workload":"ferret","config":{"warmup_cycles":200,"measure_cycles":500,"seed":11}}`,
		serveDesigns()[0].Name)
	if rec := do(t, h, "POST", "/v1/simulate", body); rec.Code != 200 {
		t.Fatalf("simulate status %d: %s", rec.Code, rec.Body)
	}
	after := do(t, h, "GET", "/metrics", "").Body.String()
	if got := metricValue(t, after, "cryowire_sim_batch_cache_misses_total"); got <= misses {
		t.Fatalf("misses counter %v after a fresh simulate, was %v", got, misses)
	}
}
