package main

import (
	"math"
	"testing"
)

func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false}, // no level leaves ten samples beyond it
		{20, 50, true},
		{99, 75, true}, // p90 leaves 9 of 99
		{100, 90, true},
		{200, 95, true},
		{999, 98, true}, // p99 leaves 9 of 999
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailLevel(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok && c.n-1-rank(c.n, p) < 10 {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, c.n-1-rank(c.n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, reversed
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100.5 || s.TailLabel != "p95" || s.Tail != 190 {
		t.Errorf("summarize = %+v", s)
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailLabel != "max" || small.Tail != 3 || small.P50 != 2 {
		t.Errorf("summarize(3 samples) = %+v, want the maximum as tail", small)
	}
}

func TestShiftedGeomean(t *testing.T) {
	if g := shiftedGeomean([]float64{0, 90}, 10); math.Abs(g-(math.Sqrt(1000)-10)) > 1e-12 {
		t.Errorf("shiftedGeomean(0, 90; 10) = %v", g)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", g)
	}
	// The shift keeps a near-zero time from dragging the mean to zero.
	if g := shiftedGeomean([]float64{0.001, 1000}, geoShift); g < 50 {
		t.Errorf("shifted geomean %v collapsed toward the tiny sample", g)
	}
}
