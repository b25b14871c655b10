// Package thermal implements a lumped RC thermal network, the substrate
// that replaces the physical SPARC T3 server's thermal behaviour.
//
// Nodes carry a heat capacitance (J/°C) and a temperature; boundaries are
// fixed-temperature reservoirs (ambient or preheated inlet air). Links are
// thermal conductances (W/°C, the reciprocal of a thermal resistance in
// °C/W). Conductances may be changed between steps, which is how fan-speed
// dependent convection is modelled: the server layer recomputes the
// sink-to-air conductance from the current RPM before each step.
//
// The network reproduces the two behaviours Figure 1 of the paper
// documents: a fast die-level transient (small C close to the heat source)
// and a slow fan-dependent heatsink transient (large C behind an
// airflow-dependent R).
//
// # Integrators
//
// Between topology or conductance changes the network is linear
// time-invariant (C·dT/dt = −G·T + P + G_b·T_b), so the default
// IntegratorExact advances any step length with the exact discrete
// propagator T(t+h) = Ad·T + Phi·u, where Ad = exp(−C⁻¹G·h) and Phi its
// integral (mathx.ExpmIntegral, Van Loan's augmented-matrix trick). The
// classical fixed-step RK4 scheme is retained behind IntegratorRK4 as the
// ground truth; the equivalence property test pins the two to ≤1e-6 °C per
// step across random networks and mid-run mutations.
//
// # Propagator cache invalidation rules
//
// Exact propagators are cached in a small LRU keyed on
// (conductance-set, step size):
//
//   - Power injections (SetPower) and boundary temperatures
//     (SetBoundaryTemp) NEVER invalidate: they enter only the per-step
//     affine term u, recomputed every step.
//   - A conductance change (SetConductance) does not flush the cache; it
//     changes the key, so stepping looks up (and at worst builds) the
//     entry for the new conductance snapshot while the old entry stays
//     resident. Alternating operating points — a controller toggling
//     between two fan speeds, or alternating dt — therefore hit the
//     cache on both sides instead of thrashing.
//   - Adding a node or changing the step size likewise selects a
//     different entry; only cache-capacity eviction (LRU, 8 entries)
//     discards one.
//
// Lookups are O(1) in the link count: every conductance mutation bumps a
// generation counter (same-value writes are no-ops), entries carry the
// generation they last matched, and a (generation, h, nodes) compare
// proves an entry current without walking its conductance snapshot. When
// the generation moved — a fan toggled away and back — the slow
// float-by-float verification runs once and re-stamps the matching entry.
//
// In steady operation the hit rate is ~100% and one step of any length is
// a single small matvec, which is what makes rack-scale stepping scale
// near-linearly in server count.
//
// # Macro-stepping
//
// Anchor and AdvanceAnchored serve the event-driven kernel
// (internal/sched): with constant inputs and the temperature-dependent
// heat sources linearized around anchor temperatures T₀ (per-node feedback
// slopes), K consecutive fixed-dt steps are one affine map M·T + c applied
// K times. The network keeps that linearization — M, c, T₀, the LU
// factors of I − M and the fixed point T* = (I − M)⁻¹·c, plus the
// squared powers M^(2^j) up to a capped depth — so T_K = T* + M^K·(x − T*)
// composes from K's binary digits for any start x, and the running
// temperature sum Σ T_k, which turns the per-step rectangle-rule energy
// accounting into a closed form, costs one triangular solve. Every segment
// endpoint is drift-checked against T₀, which bounds the linearization
// error; a breach, or a start too far from T₀, retires the anchor and the
// caller re-anchors. A singular or non-finite I − M yields no anchor and
// the caller steps plainly. The anchor lives in one allocation and rides
// through State/SetState as (T₀, M, c), from which restore re-derives the
// rest bit-identically. See macro.go for the algebra.
package thermal
