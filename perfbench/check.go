package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/room"
	"repro/internal/sched"
)

// counters flattens a registry's counters and gauges into a name → value
// map; a nil registry gives an empty map.
func counters(reg *obs.Registry) map[string]float64 {
	m := make(map[string]float64)
	for _, x := range reg.Snapshot() {
		if x.Kind != obs.KindHistogram {
			m[x.Name] = x.Value
		}
	}
	return m
}

// pinSum totals the counters named prefix + reason over a pin taxonomy.
func pinSum(c map[string]float64, prefix string, reasons []string) float64 {
	var s float64
	for _, r := range reasons {
		s += c[prefix+r]
	}
	return s
}

// checkOutcome runs the output checks every cell run must pass and returns
// the first violation, or nil.
func checkOutcome(o outcome, in inputs) error {
	var (
		wall, cool, fac, pue               float64
		submitted, placed, completed, lost int
	)
	if o.rack != nil {
		t, s := o.rack.Rack, o.rack.Sched
		wall, cool, fac, pue = t.WallEnergyKWh, t.CoolingEnergyKWh, t.FacilityEnergyKWh, t.PUE
		submitted, placed, completed, lost = s.Submitted, s.Placed, s.Completed, s.Lost
	} else {
		t, s := o.room.Room, o.room.Sched
		wall, cool, fac, pue = t.WallEnergyKWh, t.CoolingEnergyKWh, t.FacilityEnergyKWh, t.PUE
		submitted, placed, completed, lost = s.Submitted, s.Placed, s.Completed, s.Lost
	}

	// Energy chain: Facility = Wall + Cooling, PUE ≥ 1.
	if d := math.Abs(fac - (wall + cool)); !(d <= 1e-9*math.Abs(fac)) {
		return fmt.Errorf("facility %.17g kWh != wall %.17g + cooling %.17g (gap %.3g)", fac, wall, cool, d)
	}
	if !(pue >= 1) {
		return fmt.Errorf("PUE %.17g < 1", pue)
	}

	// Job conservation: every trace job is submitted; completed ≤ placed ≤
	// submitted (placed is net of thermal-trip kills, whose jobs rejoin the
	// backlog); none is dropped; and the load left on the servers is what
	// the still-running jobs can account for.
	if submitted != len(in.jobs) {
		return fmt.Errorf("submitted %d of %d trace jobs", submitted, len(in.jobs))
	}
	if completed < 0 || completed > placed || placed > submitted {
		return fmt.Errorf("job counts out of order: completed %d, placed %d, submitted %d", completed, placed, submitted)
	}
	if lost != 0 {
		return fmt.Errorf("%d jobs dropped with no drop policy set", lost)
	}
	lo, hi := demandRange(in.jobs)
	running := float64(placed - completed)
	if o.endLoad < running*lo-1e-9 || o.endLoad > running*hi+1e-9 {
		return fmt.Errorf("end load %.6g%% outside [%g, %g]%% for %d running jobs", o.endLoad, running*lo, running*hi, placed-completed)
	}

	// Pin identity: every single-step advance is charged to exactly one
	// pin reason, per rack and room-wide.
	c := counters(o.reg)
	if o.rack != nil {
		if o.reg != nil {
			adv, macro := c["kernel.steps.total"], c["kernel.windows.macro"]
			if adv != float64(o.rack.Sched.RackSteps) {
				return fmt.Errorf("kernel.steps.total %g != RackSteps %d", adv, o.rack.Sched.RackSteps)
			}
			if pins := pinSum(c, "kernel.pin.", sched.PinReasonNames()); pins != adv-macro {
				return fmt.Errorf("Σ pins %g != advances %g − macro windows %g", pins, adv, macro)
			}
		}
		return nil
	}
	var adv, macro, pins int
	for i, k := range o.room.Sched.Kernel {
		var p int
		for _, n := range k.Pins {
			p += n
		}
		if p != k.Advances-k.MacroWindows {
			return fmt.Errorf("rack %d: Σ pins %d != advances %d − macro windows %d", i, p, k.Advances, k.MacroWindows)
		}
		adv, macro, pins = adv+k.Advances, macro+k.MacroWindows, pins+p
	}
	if pins != adv-macro {
		return fmt.Errorf("room: Σ pins %d != advances %d − macro windows %d", pins, adv, macro)
	}
	if o.reg != nil {
		if c["room.rack.steps.total"] != float64(adv) || pinSum(c, "room.pin.", room.PinReasonNames()) != float64(pins) {
			return fmt.Errorf("room obs counters disagree with the per-rack kernel stats")
		}
	}
	return nil
}

// demandRange is the smallest and largest job demand in the trace.
func demandRange(jobs []sched.Job) (lo, hi float64) {
	if len(jobs) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, j := range jobs {
		d := float64(j.Demand)
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	return lo, hi
}

// rowText renders the cell's experiments row byte-comparably.
func (o outcome) rowText() string {
	if o.rack != nil {
		return fmt.Sprintf("%#v", *o.rack)
	}
	return fmt.Sprintf("%#v", *o.room)
}

// schedOutcome is the scheduling outcome the event kernel must reproduce
// exactly: submitted, placed, completed, deferrals and requeued.
func (o outcome) schedOutcome() [5]int {
	if o.rack != nil {
		s := o.rack.Sched
		return [5]int{s.Submitted, s.Placed, s.Completed, s.Deferrals, s.Requeued}
	}
	s := o.room.Sched
	return [5]int{s.Submitted, s.Placed, s.Completed, 0, s.Requeued}
}

// energyKWh is the energy the event-vs-reference gap is measured on: the
// facility energy when a shared facility is attached, the wall energy
// otherwise.
func (o outcome) energyKWh() float64 {
	if o.rack != nil {
		return o.rack.Rack.WallEnergyKWh
	}
	return o.room.Room.FacilityEnergyKWh
}

// accuracy compares event-kernel outcomes with the fixed-dt reference on
// identical inputs: the largest relative energy gap over the cells and
// the number of cells whose scheduling outcome differs.
func accuracy(event, ref []outcome) (relErr float64, mismatch int, detail string) {
	var b strings.Builder
	for i := range event {
		e, r := event[i], ref[i]
		if g := math.Abs(e.energyKWh()-r.energyKWh()) / math.Abs(r.energyKWh()); g > relErr {
			relErr = g
		}
		if es, rs := e.schedOutcome(), r.schedOutcome(); es != rs {
			mismatch++
			fmt.Fprintf(&b, "  %s: event %v vs fixed-dt %v (submitted, placed, completed, deferrals, requeued)\n", e.label(), es, rs)
		}
	}
	return relErr, mismatch, b.String()
}

func (o outcome) label() string {
	if o.rack != nil {
		return o.rack.Policy
	}
	return o.room.Policy
}
