package thermal

import (
	"math"
	"math/bits"
)

// This file implements the kept linearization anchor — the thermal half of
// the event-driven macro-stepping kernel (internal/sched). Between
// scheduling events a server's inputs are piecewise constant, so the
// fixed-dt reference path applies the same affine map over and over:
//
//	T_{k+1} = Ad·T_k + Phi·C⁻¹·(P + S·T_k + Σ g_b·T_b)
//	        = M·T_k + c,   M = Ad + Phi·C⁻¹·S,   c = Phi·C⁻¹·(P − S·T₀ + Σ g_b·T_b)
//
// where S carries the per-node feedback slopes of the temperature-dependent
// heat sources (CPU leakage, linearized by the caller around the anchor
// temperatures T₀; P is the true injected power at T₀, so the map is exact
// at the anchor). When I − M is invertible the map has the fixed point
// T* = (I − M)⁻¹·c and K applications from any start x collapse into
//
//	T_K         = T* + M^K·(x − T*)
//	Σ_{k≤K} T_k = K·T* + (I − M)⁻¹·(x − T_K) − (x − T_K)
//
// An anchor keeps M, c, T₀, the LU factors of I − M, T* and the squared
// powers M^(2^j), so it can be applied again to later windows that
// start anywhere near T₀: the linearization depends on the inputs and T₀,
// not on the trajectory that led to the window. An advance composes K from
// its binary digits (largest first, the top level repeated for long
// windows) and drift-checks every segment endpoint against T₀; the running
// temperature sum costs one triangular solve per advance and turns the
// fixed-dt rectangle-rule energy accounting into a closed form. Because the
// composition reproduces the *discrete* fixed-dt trajectory of the
// linearized map, the only deviation from the reference path is the
// curvature of the leakage model over the temperature excursion from T₀,
// which the drift cap bounds.

// maxAnchorLevel caps the ladder depth: an anchor keeps M^(2^j) for
// j ≤ maxAnchorLevel, and a segment longer than 2^maxAnchorLevel steps
// applies the top level repeatedly. Windows on the shipped traces are
// mostly a few dozen steps, so a deeper ladder saves only a few m×m
// matvecs per window while every level costs m² floats on every server
// (levels 3 to 5 time the same on the quiet rack benchmark; each level
// adds ~0.5% to its live heap).
const maxAnchorLevel = 4

// anchor is a Network's kept linearization. All of its state lives in one
// backing allocation, sized once per node count and reused by every
// re-anchor, so macro-stepping does not allocate at steady state; the
// transient work vectors of an advance borrow the network's per-step
// scratch instead of widening it.
type anchor struct {
	live bool
	m    int

	// Views into the one backing allocation (see size).
	mat   []float64 // M, the one-step linearized map (m×m, row-major)
	lu    []float64 // LU factors of I − M, unit-lower L below the diagonal
	piv   []float64 // LU row pivots, stored as exact small integers
	c     []float64 // affine term of the one-step map
	t0    []float64 // anchor temperatures, the drift reference
	tstar []float64 // fixed point T* = (I − M)⁻¹·c

	pow []float64 // M^(2^j) for j = 1..maxAnchorLevel, m×m each
}

func (a *anchor) size(m int) {
	if a.m == m && a.mat != nil {
		return
	}
	mm := m * m
	a.m = m
	a.live = false
	rest := make([]float64, (2+maxAnchorLevel)*mm+4*m)
	take := func(k int) []float64 {
		s := rest[:k:k]
		rest = rest[k:]
		return s
	}
	a.mat, a.lu, a.pow = take(mm), take(mm), take(maxAnchorLevel*mm)
	a.piv, a.c, a.t0, a.tstar = take(m), take(m), take(m), take(m)
}

// level returns M^(2^j); level 0 is M itself.
func (a *anchor) level(j int) []float64 {
	if j == 0 {
		return a.mat
	}
	mm := a.m * a.m
	return a.pow[(j-1)*mm : j*mm]
}

// factor derives everything an anchor keeps beyond (T₀, M, c): the LU
// factors of I − M with partial pivoting, the fixed point T* and every
// squared power M^(2^j) up to maxAnchorLevel. It is the
// one code path shared by a fresh anchor and a checkpoint restore, so both
// produce bit-identical anchors. It reports false — anchor not live — when
// I − M is singular or any derived value is non-finite.
func (a *anchor) factor() bool {
	m := a.m
	a.live = false
	for i := 0; i < m*m; i++ {
		a.lu[i] = -a.mat[i]
	}
	for i := 0; i < m; i++ {
		a.lu[i*m+i]++
	}
	for col := 0; col < m; col++ {
		p := col
		best := math.Abs(a.lu[col*m+col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(a.lu[r*m+col]); v > best {
				best, p = v, r
			}
		}
		if !(best > 0) || math.IsInf(best, 1) { // zero pivot or NaN/Inf entries
			return false
		}
		a.piv[col] = float64(p)
		if p != col {
			for k := 0; k < m; k++ {
				a.lu[col*m+k], a.lu[p*m+k] = a.lu[p*m+k], a.lu[col*m+k]
			}
		}
		inv := 1 / a.lu[col*m+col]
		for r := col + 1; r < m; r++ {
			f := a.lu[r*m+col] * inv
			a.lu[r*m+col] = f
			if f == 0 {
				continue // structurally uncoupled row (see matMulInto)
			}
			for k := col + 1; k < m; k++ {
				a.lu[r*m+k] -= f * a.lu[col*m+k]
			}
		}
	}
	copy(a.tstar, a.c)
	a.solve(a.tstar)
	for i := 0; i < m; i++ {
		if math.IsNaN(a.tstar[i]) || math.IsInf(a.tstar[i], 0) {
			return false
		}
	}
	// All levels are squared up front, so which segments an advance takes
	// depends only on (T₀, M, c) and never on the anchor's history.
	for j := 1; j <= maxAnchorLevel; j++ {
		matMulInto(a.level(j), a.level(j-1), a.level(j-1), m)
	}
	a.live = true
	return true
}

// solve overwrites b with (I − M)⁻¹·b using the stored LU factors.
func (a *anchor) solve(b []float64) {
	m := a.m
	for i := 0; i < m; i++ {
		if p := int(a.piv[i]); p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	for i := 1; i < m; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a.lu[i*m+k] * b[k]
		}
		b[i] = s
	}
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= a.lu[i*m+k] * b[k]
		}
		b[i] = s / a.lu[i*m+i]
	}
}

// matMulInto computes dst = a·b for m×m row-major matrices. Exact-zero
// entries of a skip their row of b: a server's per-socket die/sink blocks
// are uncoupled except through the fixed inlet boundary, so half of M and
// of its powers is structurally zero.
func matMulInto(dst, a, b []float64, m int) {
	for i := 0; i < m; i++ {
		di := dst[i*m : (i+1)*m]
		ai := a[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			di[j] = 0
		}
		for k := 0; k < m; k++ {
			f := ai[k]
			if f == 0 {
				continue
			}
			bk := b[k*m : (k+1)*m]
			for j := 0; j < m; j++ {
				di[j] += f * bk[j]
			}
		}
	}
}

// matVecInto computes dst = a·x.
func matVecInto(dst, a, x []float64, m int) {
	for i := 0; i < m; i++ {
		ai := a[i*m : (i+1)*m]
		s := 0.0
		for j := 0; j < m; j++ {
			s += ai[j] * x[j]
		}
		dst[i] = s
	}
}

// linearize assembles the one-step map M = Ad + Phi·C⁻¹·S (column j of
// Phi scaled by s_j/C_j) into mat and its affine term
// c = Phi·C⁻¹·(P − S·T₀ + Σ g_b·T_b) into c, around temperatures t0,
// assembling the input exactly the way stepExact does. u holds the
// injected powers P on entry and is clobbered.
func (n *Network) linearize(p *propagator, t0, slopes, mat, c, u []float64) {
	m := len(n.nodes)
	for j := 0; j < m; j++ {
		sj := slopes[j] / n.nodes[j].capac
		for i := 0; i < m; i++ {
			mat[i*m+j] = p.ad[i*m+j] + p.phi[i*m+j]*sj
		}
	}
	for i := 0; i < m; i++ {
		u[i] -= slopes[i] * t0[i]
	}
	for _, l := range n.links {
		if l.toBoundary {
			u[l.a] += l.g * n.boundaries[l.bBound].temp
		}
	}
	for i := 0; i < m; i++ {
		u[i] /= n.nodes[i].capac
	}
	matVecInto(c, p.phi, u, m)
}

// Anchor linearizes the network around its current node temperatures and
// keeps the result for AdvanceAnchored: the one-step map M, the affine
// term c, the LU factors of I − M and the fixed point T*, replacing any
// previous anchor. slopes[i] is node i's heat-source feedback dP/dT in
// W/°C (zero for nodes without temperature-dependent sources); the node
// powers set via SetPower must be the true injected powers at the current
// temperatures, so the map is exact at the anchor. Boundary temperatures
// and conductances are read now and frozen into the anchor.
//
// It returns false, leaving no live anchor, when the closed form is not
// available: dt ≤ 0, a non-exact integrator, an unbuildable propagator,
// mismatched slopes, or a singular or non-finite I − M (a node with no
// path to any boundary, for one, has no fixed point). The caller then
// falls back to plain Step, the exact fixed-dt semantics.
func (n *Network) Anchor(dt float64, slopes []float64) bool {
	m := len(n.nodes)
	n.anc.live = false
	if dt <= 0 || m == 0 || n.integrator != IntegratorExact || len(slopes) != m {
		return false
	}
	p := n.exactPropagator(dt)
	if p == nil {
		return false
	}
	a := &n.anc
	a.size(m)
	for i := range a.t0 {
		a.t0[i] = n.nodes[i].temp
		n.u[i] = n.nodes[i].powerIn
	}
	n.linearize(p, a.t0, slopes, a.mat, a.c, n.u)
	return a.factor()
}

// AnchorLive reports whether a kept anchor is available to AdvanceAnchored.
func (n *Network) AnchorLive() bool { return n.anc.live }

// AdvanceAnchored advances the network by up to maxSteps applications of
// the anchored map from the current node temperatures, returning the
// number of steps taken and Σ_{k=1..n} T_k per node for closed-form energy
// accounting. The sums slice aliases the network's step scratch and is
// valid until the next Step, Anchor or AdvanceAnchored call.
//
// Every segment endpoint must stay within driftCap of the anchor
// temperatures T₀ (per node, °C); a breach shortens the segment and, once
// a single step breaches, stops the advance early. The start itself must
// lie within startGap of T₀, or nothing is advanced: the linearization
// error grows with the squared distance from T₀, so a kept anchor is only
// reused near where it was taken. Either case is a drift stop — counted in
// PropagatorStats.DriftStops — and retires the anchor, so the caller's
// next advance needs a fresh Anchor. It returns 0 — leaving the node
// temperatures untouched — on a drift stop before the first step, with no
// live anchor, or when maxSteps < 1.
func (n *Network) AdvanceAnchored(maxSteps int, driftCap, startGap float64) (int, []float64) {
	a := &n.anc
	if !a.live || maxSteps < 1 || len(n.nodes) != a.m || !(driftCap > 0) {
		return 0, nil
	}
	m := a.m
	// Work vectors from the per-step scratch: the start, the current and
	// candidate deviations from T* (swapped, not copied, on acceptance),
	// and the sum correction.
	x, dev, cand, tmp := n.u, n.next, n.state, n.scratch[0]
	for i := 0; i < m; i++ {
		x[i] = n.nodes[i].temp
		if d := math.Abs(x[i] - a.t0[i]); !(d <= startGap) { // NaN-safe
			n.driftStops++
			a.live = false
			return 0, nil
		}
		dev[i] = x[i] - a.tstar[i]
	}
	done, top := 0, maxAnchorLevel
	for done < maxSteps {
		// The longest segment that fits.
		j := min(top, bits.Len(uint(maxSteps-done))-1)
		// Candidate endpoint T* + M^(2^j)·(T − T*), drift-checked against
		// T₀ before the segment is committed.
		matVecInto(cand, a.level(j), dev, m)
		ok := true
		for i := 0; i < m; i++ {
			if d := math.Abs(cand[i] + a.tstar[i] - a.t0[i]); !(d <= driftCap) { // NaN-safe
				ok = false
			}
		}
		if ok {
			dev, cand = cand, dev
			done += 1 << j
			continue
		}
		if j == 0 {
			n.driftStops++ // a single step breaches the cap: re-anchor needed
			a.live = false
			break
		}
		top = j - 1 // the breach lies inside this segment: refine below it
	}
	if done == 0 {
		return 0, nil
	}
	// Σ_{k=1..K} T_k = K·T* + (I − M)⁻¹·d − d with d = x − T_K.
	for i := 0; i < m; i++ {
		t := a.tstar[i] + dev[i]
		cand[i] = x[i] - t
		tmp[i] = cand[i]
		n.nodes[i].temp = t
	}
	a.solve(tmp)
	k := float64(done)
	for i := 0; i < m; i++ {
		x[i] = k*a.tstar[i] + tmp[i] - cand[i]
	}
	return done, x
}
