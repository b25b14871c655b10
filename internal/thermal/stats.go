package thermal

// PropagatorStats are the network's lifetime cache-and-anchor counters,
// fed into the run-metrics registry (internal/obs) by rack.MetricsInto.
// They are plain ints bumped from the single goroutine that steps the
// network, so reading them is only safe after the stepping fan-out's
// barrier.
type PropagatorStats struct {
	// Hits counts lookupPropagator successes — fast generation-stamp
	// matches plus slow float-walk re-stamps.
	Hits int
	// Misses counts lookup failures; every miss triggers a build.
	Misses int
	// Builds is the lifetime propagator build count (rebuilds included).
	Builds int
	// DriftStops counts anchored advances the drift checks stopped short of
	// the window bound or refused outright (a start too far from the
	// anchor temperatures) — each one forces the caller to re-anchor its
	// linearization.
	DriftStops int
}

// PropagatorStats returns the lifetime counters. Unlike ResetAccounting's
// energy rails these are never reset: they describe the run's whole cache
// behaviour, stabilization included.
func (n *Network) PropagatorStats() PropagatorStats {
	return PropagatorStats{
		Hits:       n.propHits,
		Misses:     n.propMisses,
		Builds:     n.propBuilds,
		DriftStops: n.driftStops,
	}
}
