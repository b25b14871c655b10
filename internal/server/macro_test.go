package server

import (
	"math"
	"testing"

	"repro/internal/thermal"
	"repro/internal/units"
)

// macroPair builds two identical servers for a macro-vs-fixed comparison.
func macroPair(t *testing.T, mutate func(*Config)) (*Server, *Server) {
	t.Helper()
	cfg := T3Config()
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// runWindows advances srv through `total` steps in macro windows of
// length `window` (the last one shorter).
func runWindows(srv *Server, dt float64, total, window int) {
	for done := 0; done < total; done += window {
		srv.MacroWindow(dt, min(window, total-done))
	}
}

// TestMacroStepMatchesFixedSteps drives one server through load levels
// with macro windows (Server.MacroWindow) and its twin with plain fixed
// steps: temperatures
// stay within the drift tolerance and energies within 1e-6 relative,
// whether one window spans the run or a kept anchor serves many.
func TestMacroStepMatchesFixedSteps(t *testing.T) {
	for _, window := range []int{900, 60, 7} {
		for _, load := range []units.Percent{0, 35, 70, 100} {
			ev, ref := macroPair(t, nil)
			ev.SetLoad(load)
			ref.SetLoad(load)
			const dt, total = 1.0, 900
			runWindows(ev, dt, total, window)
			for k := 0; k < total; k++ {
				ref.Step(dt)
			}
			if d := math.Abs(float64(ev.MaxCPUTemp() - ref.MaxCPUTemp())); d > 0.05 {
				t.Fatalf("window %d load %v: endpoint die temp off by %g °C", window, load, d)
			}
			de := math.Abs(float64(ev.Energy()-ref.Energy())) / float64(ref.Energy())
			if de > 1e-6 {
				t.Fatalf("window %d load %v: energy off by %g relative (macro %v vs fixed %v)",
					window, load, de, ev.Energy(), ref.Energy())
			}
			// Fan power is constant with settled fans, so the only difference
			// is float summation order (few big adds vs many small ones).
			if d := math.Abs(float64(ev.FanEnergy()-ref.FanEnergy())) / float64(ref.FanEnergy()); d > 1e-12 {
				t.Fatalf("window %d load %v: fan energy off by %g relative: %v vs %v",
					window, load, d, ev.FanEnergy(), ref.FanEnergy())
			}
			if d := math.Abs(float64(ev.Memory().MaxTemp() - ref.Memory().MaxTemp())); d > 1e-9 {
				t.Fatalf("window %d load %v: DIMM endpoint off by %g °C", window, load, d)
			}
			if ev.Now() != ref.Now() {
				t.Fatalf("clocks diverged: %g vs %g", ev.Now(), ref.Now())
			}
		}
	}
}

// TestMacroStepLoadTransient exercises the harder case: a cold server
// hit with a big load step mid-run, so the kept anchor must drift-stop and
// re-anchor through the fast transient before collapsing the tail.
func TestMacroStepLoadTransient(t *testing.T) {
	ev, ref := macroPair(t, nil)
	phase := func(load units.Percent, secs, window int) {
		ev.SetLoad(load)
		ref.SetLoad(load)
		runWindows(ev, 1, secs, window)
		for k := 0; k < secs; k++ {
			ref.Step(1)
		}
	}
	phase(90, 600, 600)
	phase(10, 600, 45)
	phase(65, 900, 128)
	de := math.Abs(float64(ev.Energy()-ref.Energy())) / float64(ref.Energy())
	if de > 1e-6 {
		t.Fatalf("transient energy off by %g relative", de)
	}
	if d := math.Abs(float64(ev.MaxCPUTemp() - ref.MaxCPUTemp())); d > 0.05 {
		t.Fatalf("transient endpoint temp off by %g °C", d)
	}
	if ev.PeakPower() < ref.PeakPower()-1 {
		t.Fatalf("macro peak %v undershoots fixed peak %v by >1 W", ev.PeakPower(), ref.PeakPower())
	}
	if ev.PropagatorStats().DriftStops == 0 {
		t.Fatal("a 90% load step from cold never hit the drift cap")
	}
}

// TestMacroStepFallbacks: slewing fans and RK4 integration take plain
// steps, attributed to their veto, and never anchor; a single-step window
// is a plain tail step.
func TestMacroStepFallbacks(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(50)
	srv.Step(1) // settle the fan bank bookkeeping
	srv.Fans().SetAll(srv.Fans().Target() + 600)
	srv.MacroWindow(1, 2)
	if ms := srv.MacroStats(); ms.PlainSlew < 1 || ms.PlainSlew+ms.CollapsedSteps != 2 {
		t.Fatalf("slewing fans must pin to plain steps until settled: %+v", ms)
	}

	rk, _ := macroPair(t, func(c *Config) { c.ThermalIntegrator = thermal.IntegratorRK4 })
	rk.SetLoad(50)
	rk.MacroWindow(1, 100)
	if ms := rk.MacroStats(); ms.PlainIntegrator != 100 || ms.Anchors != 0 || ms.CollapsedSteps != 0 {
		t.Fatalf("RK4 servers must pin to plain steps: %+v", ms)
	}

	one, _ := macroPair(t, nil)
	one.MacroWindow(1, 1)
	if ms := one.MacroStats(); ms.PlainTail != 1 || ms.Anchors != 0 {
		t.Fatalf("a single-step window must be one plain tail step: %+v", ms)
	}
}

// TestMacroStepCollapsesQuietTail: once settled, an hour of one-minute
// macro windows runs on a handful of kept anchors rather than one (or
// more) per window; a changed input re-anchors.
func TestMacroStepCollapsesQuietTail(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(40)
	for k := 0; k < 1200; k++ {
		srv.Step(1) // settle near steady state
	}
	runWindows(srv, 1, 3600, 60)
	ms := srv.MacroStats()
	if ms.Anchors > 3 || ms.CollapsedSteps != 3600 {
		t.Fatalf("a settled hour of 60 windows took %d anchors for %d collapsed steps, want ≤ 3 for 3600",
			ms.Anchors, ms.CollapsedSteps)
	}
	srv.SetLoad(41)
	srv.MacroWindow(1, 60)
	if got := srv.MacroStats().Anchors; got != ms.Anchors+1 {
		t.Fatalf("a load change must re-anchor once: anchors %d → %d", ms.Anchors, got)
	}
}

// TestMacroWindowResumesAnchor: a server restored mid-run from State —
// with its anchor live — continues bit-identically to the original.
func TestMacroWindowResumesAnchor(t *testing.T) {
	a, b := macroPair(t, nil)
	a.SetLoad(60)
	runWindows(a, 1, 1500, 50)
	if !a.net.AnchorLive() {
		t.Fatal("no live anchor to carry over")
	}
	if err := b.SetState(a.State()); err != nil {
		t.Fatal(err)
	}
	runWindows(a, 1, 900, 30)
	runWindows(b, 1, 900, 30)
	if a.Energy() != b.Energy() || a.MaxCPUTemp() != b.MaxCPUTemp() || a.MacroStats() != b.MacroStats() {
		t.Fatalf("resumed server diverged: energy %v vs %v, die %v vs %v, stats %+v vs %+v",
			a.Energy(), b.Energy(), a.MaxCPUTemp(), b.MaxCPUTemp(), a.MacroStats(), b.MacroStats())
	}
}

// TestStepAllocationFree pins the zero-allocation satellite: at steady
// state a Server.Step is pure arithmetic into preallocated buffers.
func TestStepAllocationFree(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(70)
	for k := 0; k < 64; k++ {
		srv.Step(1) // warm every lazily built propagator and buffer
	}
	if avg := testing.AllocsPerRun(200, func() { srv.Step(1) }); avg != 0 {
		t.Fatalf("Server.Step allocates %.1f objects/op at steady state, want 0", avg)
	}
}

// TestMacroStepAllocationFree: the kept anchor and the server's key live
// in buffers sized on first use, so macro windows — reused anchors and
// re-anchors alike — allocate nothing at steady state.
func TestMacroStepAllocationFree(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(70)
	for k := 0; k < 1200; k++ {
		srv.Step(1)
	}
	window := func() { srv.MacroWindow(1, 300) } // same key: reused anchor
	for i := 0; i < 4; i++ {
		window() // size the anchor buffers
	}
	if avg := testing.AllocsPerRun(100, window); avg != 0 {
		t.Fatalf("Server.MacroWindow allocates %.1f objects/op at steady state, want 0", avg)
	}
	load := units.Percent(70)
	flip := func() {
		load = 110 - load // 70 ↔ 40: every window re-anchors
		srv.SetLoad(load)
		srv.MacroWindow(1, 300)
	}
	if avg := testing.AllocsPerRun(100, flip); avg != 0 {
		t.Fatalf("re-anchoring MacroWindow allocates %.1f objects/op, want 0", avg)
	}
}
