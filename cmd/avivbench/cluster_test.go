package main

import (
	"testing"
	"time"
)

// TestPercentileMsNearestRank pins the nearest-rank percentile the
// cluster report prints: on small samples p95 must be the slowest
// request, not an interpolated index below it.
func TestPercentileMsNearestRank(t *testing.T) {
	ms := func(vals ...int) []time.Duration {
		out := make([]time.Duration, len(vals))
		for i, v := range vals {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	seq := func(n int) []time.Duration {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = n - i // descending, so the sort is exercised
		}
		return ms(vals...)
	}
	for _, tc := range []struct {
		name string
		lat  []time.Duration
		p    float64
		want float64
	}{
		{"empty", nil, 0.95, 0},
		{"n=1 p50", ms(7), 0.50, 7},
		{"n=1 p95", ms(7), 0.95, 7},
		{"n=8 p95 is the 8th", seq(8), 0.95, 8},
		{"n=8 p50 is the 4th", seq(8), 0.50, 4},
		{"n=20 p50 is the 10th", seq(20), 0.50, 10},
		{"n=20 p95 is the 19th", seq(20), 0.95, 19},
		{"p0 is the smallest", seq(5), 0, 1},
		{"p100 is the largest", seq(5), 1, 5},
	} {
		if got := percentileMs(tc.lat, tc.p); got != tc.want {
			t.Errorf("%s: percentileMs = %v, want %v", tc.name, got, tc.want)
		}
	}
}
