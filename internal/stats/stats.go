// Package stats provides the summary statistics the paper reports:
// containment percentiles of localization error (68% / 95%), error bars over
// meta-trials, and small helpers for histograms and timing summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Containment returns the p-quantile of xs using the paper's definition:
// "the largest error observed in at most p fraction of trials" — i.e. the
// value at rank ceil(p·n) in the sorted sample. xs is not modified.
func Containment(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// Containment68And95 returns the two containment levels the paper reports.
func Containment68And95(xs []float64) (c68, c95 float64) {
	return Containment(xs, 0.68), Containment(xs, 0.95)
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(n-1))
}

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// MeanErr is a mean with a symmetric error bar (as in the paper's
// "error bars are over ten meta-trials").
type MeanErr struct {
	Mean, Err float64
}

// String implements fmt.Stringer, printing "mean ± err".
func (m MeanErr) String() string { return fmt.Sprintf("%.2f ± %.2f", m.Mean, m.Err) }

// OverMetaTrials summarizes per-meta-trial values as mean ± standard error.
func OverMetaTrials(vals []float64) MeanErr {
	if len(vals) == 0 {
		return MeanErr{Mean: math.NaN()}
	}
	return MeanErr{
		Mean: Mean(vals),
		Err:  StdDev(vals) / math.Sqrt(float64(len(vals))),
	}
}

// TimingSummary summarizes a stage's elapsed times in milliseconds the way
// the paper's Tables I and II do: mean plus min–max range.
type TimingSummary struct {
	MeanMs, MinMs, MaxMs float64
	N                    int
}

// SummarizeTimings builds a TimingSummary from elapsed milliseconds.
func SummarizeTimings(ms []float64) TimingSummary {
	if len(ms) == 0 {
		return TimingSummary{}
	}
	min, max := MinMax(ms)
	return TimingSummary{MeanMs: Mean(ms), MinMs: min, MaxMs: max, N: len(ms)}
}

// String implements fmt.Stringer in the paper's "mean (range)" style.
func (t TimingSummary) String() string {
	return fmt.Sprintf("%.1f ms (%.0f–%.0f)", t.MeanMs, t.MinMs, t.MaxMs)
}
