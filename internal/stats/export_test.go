package stats

// MeanLateExtent returns the mean displacement among late arrivals only.
func (m *ReorderMeter) MeanLateExtent() float64 {
	if m.late == 0 {
		return 0
	}
	return float64(m.sumExtent) / float64(m.late)
}
