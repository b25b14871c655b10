package server

import (
	"math"

	"repro/internal/thermal"
	"repro/internal/units"
)

// bandLinMarginC pads the die-temperature band against the linearization
// error of the predicted trajectory: each drift-capped anchor segment can
// deviate from the fixed-dt reference by the leakage curvature (~0.02
// W/°C²) over at most the drift tolerance — far below this margin.
const bandLinMarginC = 0.05

// bandMaxAnchors bounds the drift-capped re-linearizations one horizon
// query may spend; a trajectory still drifting after this many anchors is
// a genuine transient the kernel should observe step by step.
const bandMaxAnchors = 64

// BandDecisionHorizon predicts the server's fixed-dt die-temperature
// trajectory and reports how many of the controller's upcoming decision
// instants — the grid steps first, first+stride, first+2·stride, … from
// now — are guaranteed to observe a max CPU temperature inside [lo, hi]
// (either bound may be infinite). It is the thermal half of the bang-bang
// quiet band (control.BandPromiser): a returned m means the first possible
// fan action is the (m+1)-th instant, so the kernel may sleep until then.
//
// The prediction is read-only: it iterates the same linearized propagator
// map the macro kernel applies (thermal.PredictLinearized), re-anchoring
// the leakage linearization under the configured drift tolerance, and
// never touches the live thermal state. The observed-to-die conversion is
// conservative: the band shrinks by the worst sensor offset, a 6σ sensor
// noise allowance, and the linearization margin, and its upper edge is
// clamped below the thermal-trip guard band so a promised window can never
// span a natural trip. Returns 0 — no promise beyond the next instant —
// whenever the server is not macro-eligible (RK4, dark, fault-pinned,
// slewing fans, trip risk), the band is empty after shrinking, or the
// trajectory drifts too fast to predict.
func (s *Server) BandDecisionHorizon(dt float64, first, stride, maxChecks int, lo, hi units.Celsius) int {
	if dt <= 0 || first < 1 || stride < 1 || maxChecks < 1 || !s.macroEligible() {
		return 0
	}
	dieLo := math.Inf(-1)
	maxOff := s.cfg.HotSpotOffset
	if s.cfg.EdgeOffset > maxOff {
		maxOff = s.cfg.EdgeOffset
	}
	margin := 6*s.cfg.TempNoise + bandLinMarginC
	if !math.IsInf(float64(lo), -1) {
		dieLo = float64(lo) - maxOff + margin
	}
	dieHi := float64(s.cfg.CriticalTemp) - tripGuardC
	if v := float64(hi) - maxOff - margin; v < dieHi {
		dieHi = v
	}
	if !(dieLo < dieHi) {
		return 0
	}

	// Anchor at the live state: boundary temperature and conductances are
	// window-constant, so syncing once here pins them for the whole walk.
	s.syncThermalInputs()
	m := s.net.NumNodes()
	if len(s.predTemps) != m {
		s.predTemps = make([]float64, m)
		s.predPowers = make([]float64, m)
		s.predSlopes = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		s.predTemps[i] = s.net.Temp(thermal.NodeID(i))
	}
	tol := s.macroDriftTol()

	verified := 0
	reached := 0 // grid steps walked from now
	next := first
	for anchors := 0; verified < maxChecks && anchors < bandMaxAnchors; anchors++ {
		s.fillPredictInputs()
		adv := s.net.PredictLinearized(dt, next-reached, s.predTemps, s.predPowers, s.predSlopes, tol)
		if adv == 0 {
			// A fresh anchor could not advance one step inside the drift
			// cap: a transient too fast to predict. Promise what we have.
			break
		}
		reached += adv
		if reached < next {
			continue // drift stop mid-segment: re-anchor and keep walking
		}
		maxDie := s.predTemps[s.dieNodes[0]]
		for _, die := range s.dieNodes[1:] {
			if t := s.predTemps[die]; t > maxDie {
				maxDie = t
			}
		}
		if maxDie < dieLo || maxDie > dieHi {
			break // this instant may act: the promise ends just before it
		}
		verified++
		next += stride
	}
	return verified
}

// fillPredictInputs computes the injected node powers and leakage feedback
// slopes at the *predicted* die temperatures in predTemps — the prediction
// twin of syncThermalInputs + reanchor's slope pass, evaluated on the
// model directly (anchor temperatures are hypothetical, so the live memo
// must not be polluted). Sink nodes inject nothing; utilization, DVFS and
// fan speed are window-constant by the promise contract.
func (s *Server) fillPredictInputs() {
	for i := range s.predPowers {
		s.predPowers[i] = 0
		s.predSlopes[i] = 0
	}
	nSockets := float64(len(s.dieNodes))
	lm := s.cfg.Power.Leakage
	for i, die := range s.dieNodes {
		sockU, _ := s.cpu.SocketUtilization(i)
		active := float64(s.cfg.Power.Active.Power(s.effectiveUtil(sockU))) * s.dynScale() / nSockets
		leak := float64(lm.Power(units.Celsius(s.predTemps[die])))
		s.predPowers[die] = active + leak*s.voltScale/nSockets
		s.predSlopes[die] = lm.K3 * (leak - lm.C) * s.voltScale / nSockets
	}
}
