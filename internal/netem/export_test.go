package netem

// Impairment returns the installed impairment process, or nil.
func (l *Link) Impairment() Impairment { return l.impair }

// PacketFreeListLen returns the number of recycled packets currently
// available for reuse; tests use it to prove the pool cycles.
func (n *Network) PacketFreeListLen() int { return len(n.free) }

// HeldNow returns the current box-wide custody count.
func (b *RepairBox) HeldNow() int { return b.heldNow }

// MaxDisplacement returns the model's configured displacement bound.
func (m *SwapDistance) MaxDisplacement() int { return len(m.probs) }

// Stack composes impairments in order: delays add, corrupt/duplicate
// flags OR. Each member consumes its own RNG stream, so stacking does
// not perturb the draws an impairment would make alone.
type Stack []Impairment

// Apply implements Impairment.
func (s Stack) Apply(size int) Effect {
	var e Effect
	for _, m := range s {
		e.merge(m.Apply(size))
	}
	return e
}

// merge folds another effect into this one.
func (e *Effect) merge(o Effect) {
	e.ExtraDelay += o.ExtraDelay
	e.Corrupt = e.Corrupt || o.Corrupt
	e.Duplicate = e.Duplicate || o.Duplicate
}

// Config returns the box's effective (default-filled) configuration.
func (b *RepairBox) Config() RepairConfig { return b.cfg }
