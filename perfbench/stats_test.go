package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, // exactly ten samples beyond p90
		{99, 90, false},
		{20, 50, true},
		{19, 50, false},
		{999, 99, false},
		{1000, 99, true},
		{0, 50, false},
		{100, 0, false},
		{100, 100, false},
	} {
		if got := percentileSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("percentileSupported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10.5, 9.1, 11.2, 10.9, 11.6, 10.2, 10.4, 11.0, 10.8, 9.9}, 10.65},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input")
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4), which
// is what the spread of a set of runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates below the minimum
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10.5, 9.1, 11.2, 10.9, 11.6, 10.2, 10.4, 11.0, 10.8, 9.9}, 10.125, 11.05},
		{[]float64{7, 7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	vals := []float64{10.5, 9.1, 11.2, 10.9, 11.6, 10.2, 10.4, 11.0, 10.8, 9.9}
	want := (11.05 - 10.125) / 10.65
	if got := spread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0, 0}); !math.IsInf(got, 1) {
		t.Errorf("spread of zeros = %v, want +Inf", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.9, 46}, {0.25, 20},
	} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// Ten groups of ten completions: nine at 100/s and 1 ms of CPU each, one
// slowed to 10/s with 5 ms each. The medians are the nine steady groups'.
func TestGroupMediansIgnoreASlowSpell(t *testing.T) {
	t0 := time.Unix(1000, 0)
	start := mark{at: t0}
	var done []mark
	at, cpu := t0, time.Duration(0)
	for g := 0; g < 10; g++ {
		gap, cost := 10*time.Millisecond, time.Millisecond
		if g == 4 {
			gap, cost = 100*time.Millisecond, 5*time.Millisecond
		}
		for i := 0; i < 10; i++ {
			at, cpu = at.Add(gap), cpu+cost
			done = append(done, mark{at: at, cpu: cpu})
		}
	}
	rate, cpuMs, rates := groupMedians(start, done)
	if len(rates) != 10 {
		t.Fatalf("%d groups, want 10", len(rates))
	}
	if math.Abs(rate-100) > 1e-9 || math.Abs(cpuMs-1) > 1e-9 {
		t.Errorf("rate %v/s, cpu %v ms per completion; want 100 and 1", rate, cpuMs)
	}
	if math.Abs(rates[4]-10) > 1e-9 {
		t.Errorf("slow group rate %v, want 10", rates[4])
	}
}

// Fewer completions than groups: one group per completion.
func TestGroupMediansFewCompletions(t *testing.T) {
	t0 := time.Unix(0, 0)
	done := []mark{{at: t0.Add(time.Second)}, {at: t0.Add(3 * time.Second)}, {at: t0.Add(4 * time.Second)}}
	rate, _, rates := groupMedians(mark{at: t0}, done)
	if len(rates) != 3 || rate != 1 {
		t.Errorf("rates %v, median %v; want three groups at 1, 0.5, 1 with median 1", rates, rate)
	}
}
