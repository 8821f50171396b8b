package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 98, 95, 90, 75, 50}

// rank returns the nearest-rank index (0-based) of percentile p in a
// sorted sample of n values.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up one.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)]
}

// median of sorted, interpolated between the middle two values when the
// count is even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailLevel is the highest tail percentile that leaves at least ten
// samples beyond it in a sample of n, or ok=false when no listed level
// does (fewer than 20 samples).
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if n-1-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// timing summarises one latency sample: median, the tail by the
// ten-beyond rule (the maximum when the sample is too small for any
// level), and the count.
type timing struct {
	N         int
	P50       float64
	TailLabel string
	Tail      float64
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(ms []float64) timing {
	s := sortedCopy(ms)
	t := timing{N: len(s), P50: median(s)}
	if p, ok := tailLevel(len(s)); ok {
		t.TailLabel, t.Tail = fmt.Sprintf("p%g", p), percentile(s, p)
	} else if len(s) > 0 {
		t.TailLabel, t.Tail = "max", s[len(s)-1]
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms, n=%d", t.P50, t.TailLabel, t.Tail, t.N)
}

// geoShift is the shift of the shifted geometric mean over times in
// milliseconds: it keeps instances that prove in a millisecond or two
// from dominating the mean through their logarithm.
const geoShift = 10.0

// shiftedGeomean is exp(mean(ln(x+shift))) - shift.
func shiftedGeomean(xs []float64, shift float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x + shift)
	}
	return math.Exp(sum/float64(len(xs))) - shift
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	return shiftedGeomean(xs, 0)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
