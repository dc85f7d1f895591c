package ring

// StateOf returns a member's observed state (Down for non-members).
func (r *Ring) StateOf(member string) State {
	member = Normalize(member)
	r.mu.RLock()
	defer r.mu.RUnlock()
	until, ok := r.down[member]
	if !ok {
		return Down
	}
	return stateAt(until, r.now())
}
