package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p90 over fewer than ten tail samples is one or two
// outliers, not a tail.
const minBeyond = 10

// percentileSupported reports whether n samples support the p-th
// percentile (0 < p < 100): at least minBeyond of them must lie beyond it.
// p90 needs 100 samples, p50 needs 20.
func percentileSupported(n int, p float64) bool {
	if p <= 0 || p >= 100 || n <= 0 {
		return false
	}
	beyond := float64(n) * (100 - p) / 100
	return beyond >= minBeyond-1e-9
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks (the "inclusive" method: q=0 is the
// minimum, q=1 the maximum). It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns the values in ascending order without touching vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(vals []float64) float64 {
	return quantile(sortedCopy(vals), 0.5)
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(vals, n=4) computes them (its default "exclusive"
// method, including its linear extrapolation for very small samples). It
// needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	q := pyQuantiles(sortedCopy(vals), 4)
	return q[0], q[2]
}

// pyQuantiles ports statistics.quantiles(data, n, method="exclusive") for
// sorted data of length ld >= 2: n-1 cut points, with the same integer
// rank arithmetic so results agree to the last bit of the interpolation.
func pyQuantiles(sorted []float64, n int) []float64 {
	ld := len(sorted)
	if ld < 2 {
		out := make([]float64, n-1)
		for i := range out {
			if ld == 1 {
				out[i] = sorted[0]
			} else {
				out[i] = math.NaN()
			}
		}
		return out
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (sorted[j-1]*float64(n-delta)+sorted[j]*float64(delta))/float64(n))
	}
	return out
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure each end-to-end metric must keep within its
// bound. It is +Inf when the median is zero.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// mark is one completion: when it happened and the CPU time spent by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// phaseGroups is how many groups groupMedians splits a timed phase into.
const phaseGroups = 10

// groupMedians splits the completions of a timed phase that began at
// start into phaseGroups consecutive groups of (nearly) equal count and
// returns the median over the groups of the completion rate (per second)
// and of the CPU time per completion (ms). A spell in which the host ran
// the workload slowly moves only the groups it falls in, not the medians.
// done must be in time order; rates and cpus are the per-group figures.
func groupMedians(start mark, done []mark) (rate, cpuMs float64, rates []float64) {
	n := len(done)
	groups := min(phaseGroups, n)
	var cpus []float64
	prev := start
	for g := 0; g < groups; g++ {
		lo, hi := g*n/groups, (g+1)*n/groups
		end := done[hi-1]
		rates = append(rates, float64(hi-lo)/end.at.Sub(prev.at).Seconds())
		cpus = append(cpus, (end.cpu-prev.cpu).Seconds()*1000/float64(hi-lo))
		prev = end
	}
	return median(rates), median(cpus), rates
}
