package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		// root: 0..100, children cover 10..40 and 30..60 (overlapping:
		// 50 covered) and one child sticking out past the end (90..120,
		// clipped to 10).
		{ID: 1, Layer: "harness", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "sim", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "sim", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Layer: "noc", Start: ms(90), End: ms(120)},
		// a grandchild inside span 2 takes 5 of its 30.
		{ID: 5, Parent: 2, Layer: "platform", Start: ms(20), End: ms(25)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"harness":  ms(100 - 50 - 10),
		"sim":      ms(30-5) + ms(30),
		"noc":      ms(30),
		"platform": ms(5),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %v; want %v", layer, got[layer], w)
		}
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "noc", "x", "")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}
