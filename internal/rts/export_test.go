package rts

// TotalWorkNs returns serial plus task work.
func (r Region) TotalWorkNs() float64 {
	w := r.SerialNs
	for _, t := range r.Tasks {
		w += t.DurationNs
	}
	return w
}

// ParallelEfficiency returns work / (threads * makespan).
func (s Schedule) ParallelEfficiency() float64 {
	if s.MakespanNs <= 0 || len(s.ThreadBusyNs) == 0 {
		return 0
	}
	var busy float64
	for _, b := range s.ThreadBusyNs {
		busy += b
	}
	return busy / (float64(len(s.ThreadBusyNs)) * s.MakespanNs)
}
