package routing

// Probabilities returns the per-path selection probabilities. The values
// come straight from the normalized Gibbs weights — differencing the
// cumulative array instead would re-introduce rounding noise that breaks
// the distribution's delay monotonicity in the equal-weight (ε = 0)
// corner.
func (e *Epsilon) Probabilities() []float64 {
	return pathProbabilities(e.paths, e.eps)
}
