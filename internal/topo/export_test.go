package topo

// Cuts returns the indices (into the blueprint's link slice) of the links
// crossing shard boundaries.
func (p *Partition) Cuts() []int { return p.cuts }
