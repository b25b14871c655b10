package thermal

// This file is the read-only companion of macro.go: the same linearized
// per-step affine map, iterated forward from a caller-supplied anchor to
// *predict* the fixed-dt trajectory without touching node state. It is what
// lets a controller promise "no threshold crossing before t" (the bang-bang
// quiet band, internal/server.BandDecisionHorizon) — the prediction runs on
// the identical M = Ad + Phi·C⁻¹·S map the simulation itself will apply, so
// the only divergence from the eventual reference path is the leakage
// curvature over the drift-capped excursion, exactly macro.go's error
// budget.

// PredictLinearized iterates the linearized one-step map up to maxSteps
// times starting from the caller's anchor, without mutating any node
// state. temps holds the anchor temperatures on entry (len NumNodes) and
// is overwritten with the temperatures actually reached; powers must be
// the true injected node powers at the anchor temperatures and slopes the
// per-node dP/dT feedback there (both as Anchor documents).
// Boundary temperatures and link conductances are read from the network's
// current (synced) state — they are window-constant between scheduling
// events, which is the only regime this is called in.
//
// The walk stops early when the next step would move any node more than
// driftCap from the anchor — the caller re-anchors with fresh powers and
// slopes, mirroring the kept anchor's drift-capped re-linearization — and
// returns the number of steps advanced (0 when the very first step
// breaches the cap, the integrator is not exact, or the propagator cannot
// be built; temps is then unchanged).
func (n *Network) PredictLinearized(dt float64, maxSteps int, temps, powers, slopes []float64, driftCap float64) int {
	m := len(n.nodes)
	if dt <= 0 || m == 0 || maxSteps < 1 || n.integrator != IntegratorExact {
		return 0
	}
	if len(temps) != m || len(powers) != m || len(slopes) != m || driftCap <= 0 {
		return 0
	}
	p := n.exactPropagator(dt)
	if p == nil {
		return 0
	}
	// Own scratch, not the kept anchor's: a prediction linearizes around
	// hypothetical temperatures and must leave the live anchor intact.
	if len(n.pred) != m*m+4*m {
		n.pred = make([]float64, m*m+4*m)
	}
	step, v := n.pred[:m*m], n.pred[m*m:] // M at the caller's anchor, then vectors
	c, t0, tn, tc := v[:m], v[m:2*m], v[2*m:3*m], v[3*m:]
	copy(t0, temps)
	copy(tn, powers)
	n.linearize(p, t0, slopes, step, c, tn)

	copy(tn, t0)
	steps := 0
	for steps < maxSteps {
		matVecInto(tc, step, tn, m)
		ok := true
		for i := 0; i < m; i++ {
			tc[i] += c[i]
			d := tc[i] - t0[i]
			if d < 0 {
				d = -d
			}
			if !(d <= driftCap) { // NaN-safe: divergence fails the cap
				ok = false
			}
		}
		if !ok {
			break
		}
		copy(tn, tc)
		steps++
	}
	if steps > 0 {
		copy(temps, tn)
	}
	return steps
}
