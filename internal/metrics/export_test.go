package metrics

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.reg.lock()
	g.v = v
	g.reg.unlock()
}

// Add adjusts the stored value by d.
func (g *Gauge) Add(d float64) {
	g.reg.lock()
	g.v += d
	g.reg.unlock()
}

// Names returns the instrument names in registration order.
func (r *Registry) Names() []string {
	r.lock()
	defer r.unlock()
	return append([]string(nil), r.names...)
}

// Points returns a copy of the retained points in time order.
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.At(i)
	}
	return out
}
