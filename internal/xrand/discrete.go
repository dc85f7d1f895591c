package xrand

import (
	"slices"
	"sort"
)

// Discrete samples from a finite discrete distribution given by weights.
// It precomputes a cumulative table and samples by binary search, which is
// fast enough for the trace synthesizers and keeps the implementation simple.
type Discrete struct {
	cum   []float64
	total float64
}

// Reset rebuilds d in place as a sampler over weights, reusing its
// cumulative table when it is large enough. Weights must be non-negative with
// a positive sum.
func (d *Discrete) Reset(weights []float64) {
	d.cum, d.total = slices.Grow(d.cum[:0], len(weights)), 0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		d.total += w
		d.cum = append(d.cum, d.total)
	}
	if d.total <= 0 {
		panic("xrand: weights sum to zero")
	}
}

// Sample draws an outcome index using r.
func (d *Discrete) Sample(r *RNG) int {
	u := r.Float64() * d.total
	return sort.SearchFloat64s(d.cum, u)
}

// N returns the number of outcomes.
func (d *Discrete) N() int { return len(d.cum) }
