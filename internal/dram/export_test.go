package dram

// NewController returns a cold controller for cfg, the one RunOpenLoop resets
// its pooled controller to; it panics on invalid configuration.
func NewController(cfg Config, policy SchedPolicy) *Controller {
	c := &Controller{}
	c.reset(cfg, policy)
	return c
}

// seqSource is a trivial streaming source: one line after another.
type seqSource struct{ next uint64 }

func (s *seqSource) Next() (uint64, bool) {
	a := s.next
	s.next += 64
	return a, false
}

// NewStreamSource returns an AddrSource that walks memory sequentially.
func NewStreamSource() AddrSource { return &seqSource{} }
