package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr returns the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// tailLadder lists the percentiles the tail rule chooses from, in
// per-mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile that has at least ten samples beyond it.  It returns
// the percentile and its value; ok is false when even the median has
// fewer than ten samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, pm := range tailLadder {
		if len(xs)*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, quantile(xs, float64(pm)/1000), true
		}
	}
	return 0, math.NaN(), false
}

// tailNote states which percentile the tail rule allows for xs.
func tailNote(xs []float64) string {
	if p, _, ok := tailPercentile(xs); ok {
		return fmt.Sprintf("highest percentile with 10 samples beyond: p%g", p)
	}
	return "tail rule: too few samples for any percentile"
}

// tally counts operations attempted and failed, keeping the first few
// failure descriptions for the report.
type tally struct {
	attempted, failed int
	why               []string
}

// add records n attempted operations of which failed failed.
func (t *tally) add(n, failed int, why ...string) {
	t.attempted += n
	t.failed += failed
	for _, w := range why {
		if len(t.why) < 20 {
			t.why = append(t.why, w)
		}
	}
}

// frac is the failed share of attempted operations.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
