// Package stats provides the statistical helpers used across the design
// space exploration: summary statistics, normalization, covariance and a
// principal component analysis built on a cyclic Jacobi eigensolver.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Standardize returns (xs - mean) / stddev. If stddev is zero the centered
// values are returned unscaled.
func Standardize(xs []float64) []float64 {
	m, sd := Mean(xs), StdDev(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		if sd > 0 {
			out[i] = (x - m) / sd
		} else {
			out[i] = x - m
		}
	}
	return out
}

// Covariance returns the population covariance of xs and ys, which must have
// the same length.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// Summary holds the summary statistics reported in the DSE result tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}
