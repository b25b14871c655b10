package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/server"
)

// compareKernels runs RackPolicyComparison on both kernels and checks the
// per-row equivalence contract: identical scheduling outcomes, energies
// within the macro-stepping tolerance, identical fan-change counts. It
// returns the per-policy speedup factors keyed by policy name plus the
// aggregate fixed/event step totals. ev.Metrics, when set, instruments
// the event-kernel run only.
func compareKernels(t *testing.T, ev RackEval) (rows []RackPolicyResult, speedups map[string]float64, fixedSteps, eventSteps int) {
	t.Helper()
	base := server.T3Config()
	fixedEv := ev
	fixedEv.Metrics = nil
	fixedRows, err := RackPolicyComparison(base, fixedEv)
	if err != nil {
		t.Fatal(err)
	}
	ev.EventStepping = true
	eventRows, err := RackPolicyComparison(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixedRows) != len(eventRows) {
		t.Fatalf("row count mismatch: %d vs %d", len(fixedRows), len(eventRows))
	}
	speedups = make(map[string]float64, len(fixedRows))
	for i, f := range fixedRows {
		e := eventRows[i]
		if f.Policy != e.Policy {
			t.Fatalf("row %d policy mismatch: %s vs %s", i, f.Policy, e.Policy)
		}
		fixedSteps += f.Sched.RackSteps
		eventSteps += e.Sched.RackSteps
		speedups[f.Policy] = float64(f.Sched.RackSteps) / float64(e.Sched.RackSteps)
		t.Logf("%-14s rack steps %d → %d (%.1f×), Wh %.3f → %.3f",
			f.Policy, f.Sched.RackSteps, e.Sched.RackSteps,
			speedups[f.Policy], f.TotalWh(), e.TotalWh())

		// Identical scheduling outcomes.
		fs, es := f.Sched, e.Sched
		fs.RackSteps, es.RackSteps = 0, 0
		fs.Metrics, es.Metrics = nil, nil
		if fs != es {
			t.Errorf("%s: scheduling outcomes differ:\nfixed %+v\nevent %+v", f.Policy, f.Sched, e.Sched)
		}
		// Energies within the macro-stepping tolerance.
		for _, m := range []struct {
			name string
			f, e float64
		}{
			{"TotalEnergyKWh", f.Rack.TotalEnergyKWh, e.Rack.TotalEnergyKWh},
			{"FanEnergyKWh", f.Rack.FanEnergyKWh, e.Rack.FanEnergyKWh},
			{"WallEnergyKWh", f.Rack.WallEnergyKWh, e.Rack.WallEnergyKWh},
		} {
			d := math.Abs(m.e - m.f)
			if m.f != 0 {
				d /= math.Abs(m.f)
			}
			if d > 1e-6 {
				t.Errorf("%s: %s off by %g relative (event %g vs fixed %g)",
					f.Policy, m.name, d, m.e, m.f)
			}
		}
		if f.Rack.FanChanges != e.Rack.FanChanges {
			t.Errorf("%s: fan changes differ: %d vs %d", f.Policy, f.Rack.FanChanges, e.Rack.FanChanges)
		}
		if d := math.Abs(f.Rack.MaxCPUTempC - e.Rack.MaxCPUTempC); d > 0.3 {
			t.Errorf("%s: MaxCPUTempC off by %g °C", f.Policy, d)
		}
	}
	return fixedRows, speedups, fixedSteps, eventSteps
}

// TestEventSteppingSmoke is the CI gate for the event-driven kernel on the
// real experiment: the RackPolicyComparison Poisson trace, fixed-dt vs
// event-driven, on the default (drained-queue) shape and on a saturated
// variant whose backlog never empties. It logs the macro-vs-fixed step
// counts and the speedup factor per policy and fails if event stepping
// cannot collapse the default trace at least 5× in aggregate — or, since
// PR 8's load-only refusal un-pin, the saturated trace at least 5× on the
// load-only policies — or if any headline metric drifts past the
// macro-stepping tolerance.
func TestEventSteppingSmoke(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		_, _, fixedSteps, eventSteps := compareKernels(t, DefaultRackEval())
		macroCountGate(t)
		speedup := float64(fixedSteps) / float64(eventSteps)
		t.Logf("default trace: %d fixed rack steps vs %d event rack steps — %.1f× fewer", fixedSteps, eventSteps, speedup)
		if eventSteps >= fixedSteps {
			t.Fatalf("event stepping took %d rack steps, fixed-dt %d: no collapse at all", eventSteps, fixedSteps)
		}
		if speedup < 5 {
			t.Fatalf("event stepping collapsed the default trace only %.1f×, want ≥5×", speedup)
		}
	})
	t.Run("saturated", func(t *testing.T) {
		ev := DefaultRackEval()
		// 4× the default offered load ≈ 1.2× rack capacity: the backlog
		// never drains, while arrivals stay sparse enough that an
		// O(#events) kernel still has a collapse to show (at much higher
		// rates the arrival events themselves dominate the step count).
		ev.Rate *= 4
		rows, speedups, fixedSteps, eventSteps := compareKernels(t, ev)
		t.Logf("saturated trace: %d fixed rack steps vs %d event rack steps", fixedSteps, eventSteps)
		for _, r := range rows {
			if r.Sched.MaxQueueLen < 4 {
				t.Fatalf("%s: max queue %d — the trace is not saturated and the gate below is vacuous",
					r.Policy, r.Sched.MaxQueueLen)
			}
		}
		// Load-only refusers macro-step completion-to-completion even with
		// jobs queued; the thermally-informed policies keep the backlog pin
		// (exactness first), so only the load-only rows carry the gate.
		for _, policy := range []string{"round-robin", "least-utilized"} {
			s, ok := speedups[policy]
			if !ok {
				t.Fatalf("policy %q missing from comparison rows", policy)
			}
			if s < 5 {
				t.Errorf("%s: saturated trace collapsed only %.1f×, want ≥5× from the load-only un-pin", policy, s)
			}
		}
	})
}

// defaultTracePins is Σ kernel.pin.* on the default trace as `evalctl
// -rack -eventstep -metrics` runs it (uncapped and capped halves): the
// kernel's schedule of advances, windows and pins is fixed by the trace,
// the cap and the controllers' promises, not by how a window is advanced.
const defaultTracePins = 2068

// macroCountGate runs the default trace the way `evalctl -rack -eventstep
// -metrics` does and pins its deterministic work counts: the kept leakage
// anchors must serve most windows (≤ 1.3 fresh linearizations per
// server-window), plain tail steps happen only on single-step windows
// (one per server), the pin total is the trace's, and drift-forced
// re-anchors are still counted.
func macroCountGate(t *testing.T) {
	t.Helper()
	ev := DefaultRackEval()
	ev.EventStepping = true
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	ev.PSU, ev.PDU = &psu, &pdu
	reg := obs.NewRegistry()
	ev.Metrics = reg
	if _, err := RackACComparison(server.T3Config(), ev); err != nil {
		t.Fatal(err)
	}
	c := func(name string) int64 { return reg.Counter(name).Value() }
	var pins int64
	for _, m := range reg.Snapshot() {
		if m.Kind == obs.KindCounter && strings.HasPrefix(m.Name, "kernel.pin.") {
			pins += int64(m.Value)
		}
	}
	advances, windows := c("kernel.steps.total"), c("kernel.windows.macro")
	serverWindows := windows * int64(ev.Servers)
	anchors := c("rack.macro.anchors")
	t.Logf("default trace: %d anchors over %d server-windows (%.2f per server-window), %d drift stops, %d plain tail steps, Σ pins %d",
		anchors, serverWindows, float64(anchors)/float64(serverWindows), c("rack.macro.drift_stops"), c("rack.macro.plain.tail"), pins)
	if 10*anchors > 13*serverWindows {
		t.Errorf("rack.macro.anchors = %d over %d server-windows, want ≤ 1.3 per server-window", anchors, serverWindows)
	}
	if tail, single := c("rack.macro.plain.tail"), (advances-windows)*int64(ev.Servers); tail != single {
		t.Errorf("rack.macro.plain.tail = %d, want single-step windows × servers = %d", tail, single)
	}
	if pins != defaultTracePins || pins != advances-windows {
		t.Errorf("Σ pins = %d (advances %d − windows %d), want %d", pins, advances, windows, defaultTracePins)
	}
	if c("rack.macro.drift_stops") == 0 {
		t.Error("rack.macro.drift_stops = 0: drift-forced re-anchors are no longer counted")
	}
}
