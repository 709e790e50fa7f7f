package serve

// Waits tests use instead of sleep-polling. They read what the non-test
// code signals: the instance's notec and the job driver's tick note.

// changed returns a channel closed at the next observable state change
// (epoch resolved, health or lifecycle transition). Waiters re-check
// their predicate, then wait again.
func (i *Instance) changed() <-chan struct{} {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.notec == nil {
		i.notec = make(chan struct{})
	}
	return i.notec
}

// tickWait returns the completed-tick count and a channel that closes
// when the next tick completes.
func (d *jobDriver) tickWait() (int64, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ticknote == nil {
		d.ticknote = make(chan struct{})
	}
	return d.ticks, d.ticknote
}
