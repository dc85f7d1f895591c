package apps

// FPFrac returns the floating-point fraction of the (normalized) mix.
func (m Mix) FPFrac() float64 {
	return (m.FPAdd + m.FPMul + m.FPFMA + m.FPDiv) / m.total()
}

// MemFrac returns the memory-op fraction of the (normalized) mix.
func (m Mix) MemFrac() float64 { return (m.Load + m.Store) / m.total() }
