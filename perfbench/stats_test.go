package main

import (
	"math"
	"testing"
)

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	// 1..100: the highest sample with ten strictly above it is 90, the
	// 90th percentile.
	xs := make([]float64, 100)
	for i := range xs {
		xs[100-1-i] = float64(i + 1) // unsorted input
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v, %v, %v; want 90, 90, true", v, pct, ok)
	}

	// Exactly eleven samples: the smallest one qualifies.
	v, _, ok = tail(xs[89:])
	if !ok || v != 1 {
		t.Fatalf("tail(11 samples) = %v, %v; want the minimum", v, ok)
	}

	// Ten samples cannot have ten beyond any of them.
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of ten samples must not qualify")
	}
}

func TestTailRuleSkipsTies(t *testing.T) {
	// 20 samples of 1 and 9 samples of 5: nothing has ten samples
	// strictly above it except the ones, so the tail is 1 at the share
	// of samples at or below it.
	var xs []float64
	for i := 0; i < 20; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 9; i++ {
		xs = append(xs, 5)
	}
	v, pct, ok := tail(xs)
	if ok {
		t.Fatalf("tail = %v at %v; only 9 samples lie beyond 1, so nothing qualifies", v, pct)
	}
	xs = append(xs, 5) // now ten lie beyond 1
	v, pct, ok = tail(xs)
	if !ok || v != 1 || math.Abs(pct-100*20.0/30) > 1e-9 {
		t.Fatalf("tail = %v, %v, %v; want 1 at %.2f", v, pct, ok, 100*20.0/30)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v; want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v; want 1 2 4", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v; want 2.5", m)
	}
}
