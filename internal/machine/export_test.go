package machine

// StageCalls counts, for one pure stage of Step, the calls that ran the
// solver and the calls answered by a stored solution.
type StageCalls struct{ Solved, Reused uint64 }

// ReusedShare is the fraction of the stage's calls that skipped the solver.
func (c StageCalls) ReusedShare() float64 {
	if c.Solved+c.Reused == 0 {
		return 0
	}
	return float64(c.Reused) / float64(c.Solved+c.Reused)
}

// ReuseCounts reports the machine's per-stage solve/reuse counters.
func (m *Machine) ReuseCounts() (freq, cache, lat StageCalls) {
	r := &m.reuse
	return StageCalls{r.freqSolves, r.freqReused},
		StageCalls{r.cacheSolves, r.cacheReused},
		StageCalls{r.latSolves, r.latReused}
}
