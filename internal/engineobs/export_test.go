package engineobs

// SetMaxWindows overrides the retained-row cap (aggregates are unaffected).
func (p *Profiler) SetMaxWindows(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > 0 {
		p.maxWindows = n
	}
}

// Stalled reports whether a stall was declared.
func (w *Watchdog) Stalled() bool { return w != nil && w.stalled.Load() }
