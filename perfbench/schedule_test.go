package main

import (
	"reflect"
	"testing"
)

func schedule(seed int64) []request {
	g := newGenerator(seed)
	reqs := g.stage("low", 30, 4, serveMix)
	reqs = append(reqs, g.stage("high", 75, 4, serveMix)...)
	return append(reqs, g.batch("drain0", 240, serveMix)...)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(7), schedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := schedule(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// Different seeds order the mix differently and draw different
	// fresh inputs, but do the same amount of work.
	count := func(rs []request) map[string]int {
		m := map[string]int{}
		for _, r := range rs {
			m[r.Stage+"/"+r.Route+"/"+r.Class]++
		}
		return m
	}
	sameRoutes := true
	for i := range a {
		sameRoutes = sameRoutes && a[i].Route == c[i].Route
	}
	if sameRoutes {
		t.Fatal("seeds 7 and 8 gave the same request order")
	}
	ka, kc := count(a), count(c)
	for k := range ka {
		if k[len(k)-4:] == "cold" && ka[k] != kc[k] {
			t.Fatalf("%s: %d cold requests with one seed, %d with the other", k, ka[k], kc[k])
		}
	}
}

func TestScheduleMixAndFreshKeys(t *testing.T) {
	reqs := newGenerator(3).stage("low", 50, 2, serveMix)
	if len(reqs) != 100 {
		t.Fatalf("%d requests; want 50 rps x 2 s = 100", len(reqs))
	}
	n := map[string]int{}
	keys := map[string]bool{}
	for i, r := range reqs {
		n[r.Route]++
		if r.Class == "cold" {
			k := r.Path + r.Body
			if keys[k] {
				t.Fatalf("cold request %d repeats a cache key: %s", i, k)
			}
			keys[k] = true
		}
		if i > 0 && r.Due <= reqs[i-1].Due {
			t.Fatalf("request %d is not due after request %d", i, i-1)
		}
	}
	hot := n["experiments"] + n["wire"] + n["temperature"]
	if hot != 70 || n["simulate"] != 20 || n["noc"] != 10 {
		t.Fatalf("mix = %d hot, %d simulate, %d noc; want 70/20/10", hot, n["simulate"], n["noc"])
	}
}
