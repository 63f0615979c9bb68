package main

import "testing"

// runs builds a result set of one workload whose wall_s takes vals,
// seeds 1..len(vals).
func runs(vals ...float64) resultSet {
	var rs []*result
	for i, v := range vals {
		rs = append(rs, &result{Workload: "w", Seed: int64(i + 1), Metrics: metrics{"wall_s": {Value: v, Unit: "s"}}})
	}
	return resultSet{"w": rs}
}

func verdict(t *testing.T, parent, change resultSet) string {
	t.Helper()
	for _, c := range compareSets(parent, change, map[string]float64{"wall_s": 0.1}) {
		if c.metric == "wall_s" {
			return c.verdict
		}
	}
	t.Fatal("no wall_s row")
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	parent := runs(10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10.05)
	if v := verdict(t, parent, runs(9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9, 9.05)); v != "better" {
		t.Errorf("10%% faster in every pair: %s; want better", v)
	}
	if v := verdict(t, parent, runs(9, 11, 8.9, 11, 8.8, 11, 9.1, 11, 9, 11)); v == "better" {
		t.Error("winning half the pairs must not count as better")
	}
	if v := verdict(t, parent, runs(11.5, 11.6, 11.4, 11.7, 11.3, 11.5, 11.6, 11.4, 11.5, 11.55)); v != "worse" {
		t.Errorf("15%% slower against a 10%% bound: %s; want worse", v)
	}
	if v := verdict(t, parent, runs(10.1, 10, 10, 10.2, 9.9, 10, 10, 10.1, 9.9, 10)); v != "unchanged" {
		t.Errorf("same distribution: %s; want unchanged", v)
	}
	if v := verdict(t, runs(10, 10.1, 9.9), runs(9, 9.1, 8.9)); v != "unresolved" {
		t.Errorf("three winning pairs: %s; want unresolved (a gain needs at least ten pairs)", v)
	}
	wide := runs(7, 13, 8, 12, 10, 9, 11, 7.5, 12.5, 10)
	if v := verdict(t, wide, runs(10.5, 10, 11, 10.2, 10.8, 10.1, 10.4, 10.6, 10.3, 10.9)); v != "unresolved" {
		t.Errorf("parent spread over the bound: %s; want unresolved", v)
	}
}
