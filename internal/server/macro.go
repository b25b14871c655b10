package server

import (
	"math"

	"repro/internal/thermal"
	"repro/internal/units"
)

// defaultMacroDriftTolC is the per-anchor node-temperature movement cap
// when Config.MacroDriftTolC is zero. The leakage model's curvature at
// operating temperatures is ~0.02 W/°C², so re-anchoring the linearization
// whenever a node strays a degree from its anchor keeps the energy
// deviation from the fixed-dt rectangle sums around 5e-7 relative on the
// two-day quiet rack benchmark trace (it scales with the tolerance) —
// inside the event kernel's 1e-6 equivalence budget.
const defaultMacroDriftTolC = 1.0

// tripGuardC is the margin below CriticalTemp within which macro-stepping
// refuses to collapse steps: the fixed-dt path checks the thermal-trip
// threshold after every step, and a macro window must not be able to skip
// past it. An anchor is only taken outside this band, and a collapsed
// endpoint stays within the drift tolerance of its anchor temperatures
// (see macroDriftTol).
const tripGuardC = 5

// MacroWindow advances the server through exactly `steps` fixed-dt steps —
// the rack-level macro window — and returns the maxima observed at
// sub-step boundaries for the rack's temperature roll-ups.
//
// Between scheduling events the server's inputs are constant: utilization,
// fan command, ambient and therefore active, memory, fan and idle power.
// The only per-step feedback is the temperature-dependent CPU leakage, so
// the fixed-dt trajectory is the repeated application of one affine map
// once leakage is linearized. The thermal network keeps that
// linearization as an anchor (thermal.Network.Anchor) and advances it in
// closed form under a drift cap that bounds the linearization error; the
// DIMM bank collapses its first-order lag exactly (mem.StepN), and the
// energy meters are charged from the closed-form temperature sum — the
// same rectangle rule the fixed-dt path accumulates, evaluated at each
// segment's mean hottest-die temperature.
//
// The anchor outlives the window: a later window reuses it while every
// input syncThermalInputs reads is bit-identical to the anchor's (see
// anchorInputsCurrent) and the window starts within a quarter of the drift
// tolerance of the anchor temperatures. Otherwise — and after any drift
// stop — the window re-anchors at its current state.
//
// The caller owns controller scheduling: MacroWindow never ticks a fan
// controller, so it must only be asked to span windows every controller
// has promised to stay quiet for (control.HorizonPromiser). Single-step
// windows take one plain Step, and so does any step the closed form
// cannot cover: RK4 integration, a dark or fault-pinned machine, slewing
// fans (the airflow conductances move every step), proximity to the
// thermal-trip threshold, or a transient faster than the drift tolerance.
// The window-constant bookkeeping (DIMM lag, fan energy, peak sampling,
// the power breakdown) is deferred to flush points instead of being
// repeated per segment, and a window that ends on a plain Step — every
// single-step window — keeps that Step's tail as its own.
func (s *Server) MacroWindow(dt float64, steps int) (maxDieC, maxDIMMC, maxInletC float64) {
	maxDieC, maxDIMMC, maxInletC = -1e9, -1e9, -1e9
	fold := func() {
		if t := float64(s.MaxCPUTemp()); t > maxDieC {
			maxDieC = t
		}
	}
	foldSlow := func() { // DIMM/inlet only move at flush boundaries
		if t := float64(s.mem.MaxTemp()); t > maxDIMMC {
			maxDIMMC = t
		}
		if t := float64(s.InletTemp()); t > maxInletC {
			maxInletC = t
		}
	}
	// No window-start fold: the pre-window state was sampled by the rack's
	// previous observation, and the fixed-dt reference only ever samples
	// post-step states — a start fold would see "new load, pre-slew fan"
	// combinations that never exist on the reference path.
	pendingMem := 0
	plainEnd := false // the window's last advance was a plain Step
	for done := 0; done < steps; {
		// Single-step windows (pinned advances) keep the plain Step: the
		// closed form cannot beat one matvec.
		if steps >= 2 {
			if s.macroEligible() {
				if n := s.macroSegment(dt, steps-done); n > 0 {
					done += n
					pendingMem += n
					plainEnd = false
					fold()
					continue
				}
				// Eligible, but a fresh anchor could not take one step: a
				// transient faster than the drift cap, or no fixed point.
				s.macroStats.PlainDrift++
			} else {
				s.countVetoPlain()
			}
		} else {
			s.macroStats.PlainTail++
		}
		// Plain step: flush the deferred window state first — a slewing fan
		// changes the DIMM equilibrium the deferred steps must not see.
		if pendingMem > 0 {
			s.flushMacro(dt, pendingMem)
			pendingMem = 0
		}
		s.Step(dt)
		done++
		plainEnd = true
		fold()
		foldSlow()
	}
	if plainEnd {
		// Step already ran the window tail (trip check, breakdown, peak)
		// and foldSlow sampled its state; repeating both is a no-op.
		return maxDieC, maxDIMMC, maxInletC
	}
	if pendingMem > 0 {
		s.flushMacro(dt, pendingMem)
	}
	s.finishMacroWindow()
	foldSlow()
	return maxDieC, maxDIMMC, maxInletC
}

// MacroStats is the server's lifetime macro-vs-plain step attribution —
// the per-slot answer to "which pin ate the collapsed steps". Counters are
// plain ints bumped only by the goroutine stepping this server, so they
// are read after the rack fan-out's barrier (rack.MetricsInto) and never
// reset.
type MacroStats struct {
	// Anchors counts fresh linearizations of the leakage feedback around
	// the current die temperatures. A kept anchor serves every later
	// segment whose inputs and start it admits, so this is usually far
	// below the segment count.
	Anchors int
	// CollapsedSteps is the total fixed-dt steps taken in closed form.
	CollapsedSteps int
	// Plain-step fallbacks inside macro windows, split by the veto that
	// forced them (checked in macroEligible's order).
	PlainIntegrator int // RK4 configured: closed form needs the exact map
	PlainPinned     int // dark machine or active fault window (PinFixedDt)
	PlainSlew       int // fans slewing: conductances move every step
	PlainTripBand   int // within tripGuardC of CriticalTemp
	PlainDrift      int // a fresh anchor refused its first step (drift cap, no fixed point)
	PlainTail       int // single-step window, no veto
}

// MacroStats returns the lifetime attribution counters.
func (s *Server) MacroStats() MacroStats { return s.macroStats }

// PropagatorStats surfaces the thermal network's propagator-cache and
// drift-stop counters for the same roll-up.
func (s *Server) PropagatorStats() thermal.PropagatorStats {
	return s.net.PropagatorStats()
}

// countVetoPlain attributes one plain-step fallback to the macroEligible
// veto that caused it, re-checking the conditions in the same order.
func (s *Server) countVetoPlain() {
	switch {
	case s.cfg.ThermalIntegrator != thermal.IntegratorExact:
		s.macroStats.PlainIntegrator++
	case !s.powered || s.fixedPin > 0:
		s.macroStats.PlainPinned++
	case !s.fans.Settled():
		s.macroStats.PlainSlew++
	default:
		s.macroStats.PlainTripBand++
	}
}

// macroEligible reports whether the server's state permits collapsing
// steps at all (cheap checks; the drift cap inside the anchored advance
// does the quantitative one).
func (s *Server) macroEligible() bool {
	if s.cfg.ThermalIntegrator != thermal.IntegratorExact {
		return false
	}
	if !s.powered || s.fixedPin > 0 {
		// A dark machine's relaxation and any active bounded fault window
		// (PinFixedDt) integrate with plain fixed-dt steps — the PR 5
		// contract for fault windows.
		return false
	}
	if !s.fans.Settled() {
		return false
	}
	return float64(s.MaxCPUTemp()) < float64(s.cfg.CriticalTemp)-tripGuardC
}

// macroDriftTol is the effective per-anchor drift cap: the configured
// tolerance (default defaultMacroDriftTolC), never larger than the trip
// guard. macroEligible admits anchors taken up to tripGuardC below
// CriticalTemp, and every collapsed endpoint stays within the cap of its
// anchor temperatures, so a cap at the guard band keeps it at or below the
// threshold the per-step path checks every dt.
func (s *Server) macroDriftTol() float64 {
	tol := s.cfg.MacroDriftTolC
	if tol <= 0 {
		tol = defaultMacroDriftTolC
	}
	return math.Min(tol, tripGuardC)
}

// anchorKeyScalars is the number of scalar inputs at the head of the
// anchor key; one utilization per socket follows them.
const anchorKeyScalars = 8

// anchorInputsCurrent reports whether every input syncThermalInputs reads
// — dt, utilization (machine-wide and per socket), mean fan speed, ambient
// including offsets, DVFS scales and throttle, powered — is bit-identical
// to the inputs the live thermal anchor was taken under, and records the
// current inputs as the key either way (a mismatch re-anchors under
// them). The key shares the server's one macro allocation with the slope
// vector.
func (s *Server) anchorInputsCurrent(dt float64) bool {
	m := s.net.NumNodes()
	if need := m + anchorKeyScalars + len(s.dieNodes); len(s.macroBuf) != need {
		s.macroBuf = make([]float64, need)
	}
	key := s.macroBuf[m:]
	same := s.net.AnchorLive()
	put := func(i int, v float64) {
		if math.Float64bits(key[i]) != math.Float64bits(v) {
			key[i] = v
			same = false
		}
	}
	put(0, dt)
	put(1, float64(s.cpu.Utilization()))
	put(2, float64(s.fans.MeanRPM()))
	put(3, float64(s.cfg.Ambient))
	put(4, s.freqScale)
	put(5, s.voltScale)
	put(6, boolKey(s.throttled))
	put(7, boolKey(s.powered))
	for i := range s.dieNodes {
		u, _ := s.cpu.SocketUtilization(i)
		put(anchorKeyScalars+i, float64(u))
	}
	return same
}

func boolKey(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// reanchor linearizes the leakage feedback around the current die
// temperatures and hands the result to the thermal network as its kept
// anchor, refreshing boundary temperature, conductances and injected
// powers first — exactly what a plain step would apply.
func (s *Server) reanchor(dt float64) bool {
	s.syncThermalInputs()
	m := s.net.NumNodes()
	slopes := s.macroBuf[:m]
	for i := range slopes {
		slopes[i] = 0
	}
	nSockets := float64(len(s.dieNodes))
	lm := s.cfg.Power.Leakage
	for _, die := range s.dieNodes {
		// dPleak/dT = K3·(Pleak − C) for the exponential model: reuse the
		// (memoized) leakage evaluation instead of a second math.Exp.
		leak := s.leakageAt(units.Celsius(s.net.Temp(die)))
		slopes[die] = lm.K3 * (leak - lm.C) * s.voltScale / nSockets
	}
	if !s.net.Anchor(dt, slopes) {
		return false
	}
	s.macroStats.Anchors++
	return true
}

// macroSegment advances up to maxSteps steps on the kept anchor in one
// closed-form segment, re-anchoring first when the inputs moved or no
// anchor is live, and once more when the kept anchor refuses the start.
// Thermal state, clock and the total-energy meter advance; DIMM lag, fan
// energy, peak and breakdown refresh are left to flushMacro and
// finishMacroWindow. 0 means "not collapsible here" with all state
// untouched.
func (s *Server) macroSegment(dt float64, maxSteps int) int {
	tol := s.macroDriftTol()
	fresh := false
	if !s.anchorInputsCurrent(dt) {
		if !s.reanchor(dt) {
			return 0
		}
		fresh = true
	}
	n, sums := s.net.AdvanceAnchored(maxSteps, tol, tol/4)
	if n == 0 && !fresh {
		// The kept anchor is too far from this window's start (or drifted
		// out on the first step): linearize here instead.
		if !s.reanchor(dt) {
			return 0
		}
		n, sums = s.net.AdvanceAnchored(maxSteps, tol, tol/4)
	}
	if n == 0 {
		return 0
	}
	span := float64(n) * dt

	// Energy: the fixed-dt path charges the post-step breakdown every step.
	// All components except leakage are constant over the segment, and
	// leakage is charged at the mean of the hottest die's post-step
	// temperatures (for symmetric socket loads — the dispatcher's uniform
	// spreading — the dies are identical and this is the exact mean; the
	// curvature of the leakage exponential over ≤ tol of drift is the only
	// deviation from the reference sums).
	u := s.cpu.Utilization()
	meanMax := sums[s.dieNodes[0]]
	for _, die := range s.dieNodes[1:] {
		if v := sums[die]; v > meanMax {
			meanMax = v
		}
	}
	meanMax /= float64(n)
	constW := float64(s.cfg.Power.IdleFloor) +
		float64(s.cfg.Power.Active.Power(s.effectiveUtil(u)))*s.dynScale() +
		float64(s.cfg.Power.Memory.Power(u)) +
		float64(s.fans.Power())
	leakMean := float64(s.cfg.Power.Leakage.Power(units.Celsius(meanMax))) * s.voltScale
	s.energy += units.Joules((constW + leakMean) * span)
	s.clock += span
	s.macroStats.CollapsedSteps += n
	return n
}

// flushMacro applies the bookkeeping deferred across n collapsed steps:
// the DIMM first-order lag (exact closed form — conditions were constant
// while the steps were pending) and the separately metered fan energy.
func (s *Server) flushMacro(dt float64, n int) {
	s.mem.StepN(dt, n, s.cfg.Ambient, s.cpu.Utilization(), s.fans.MeanRPM())
	s.fanEnergy += units.Energy(s.fans.Power(), float64(n)*dt)
}

// finishMacroWindow mirrors the tail of Step at a window boundary: trip
// check, breakdown refresh, peak sampling. Within a collapsed sub-window
// power moves monotonically with the ≤ tol die drift, so the boundary
// samples are within leakage-slope·tol of the true per-step maximum.
func (s *Server) finishMacroWindow() {
	if s.powered && s.MaxCPUTemp() >= s.cfg.CriticalTemp {
		s.tripped = true
		_, hi := s.fans.Range()
		s.fans.SetAll(hi)
	}
	s.updateBreakdown()
	if total := s.lastBreakdown.Total(); total > s.peak {
		s.peak = total
	}
}
