package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 101; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 51}, {90, 91}, {99, 100}, {100, 101}, {99.5, 100.5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..101, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
	if xs[0] != 101 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{5, 5, 5}, [3]float64{5, 5, 5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one sample = %g %g %g, want 4 4 4", q1, q2, q3)
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}
