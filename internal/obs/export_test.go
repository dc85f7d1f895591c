package obs

// Dropped reports how many spans the ring has overwritten since Reset.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
