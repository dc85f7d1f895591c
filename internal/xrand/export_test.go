package xrand

// NewDiscrete builds a sampler over len(weights) outcomes. Weights must be
// non-negative with a positive sum.
func NewDiscrete(weights []float64) *Discrete {
	d := &Discrete{}
	d.Reset(weights)
	return d
}

// Prob returns the probability of outcome i.
func (d *Discrete) Prob(i int) float64 {
	if i == 0 {
		return d.cum[0] / d.total
	}
	return (d.cum[i] - d.cum[i-1]) / d.total
}
