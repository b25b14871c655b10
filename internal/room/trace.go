package room

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/units"
)

// TraceConfig parameterizes a room trace run. It is the room-scope subset
// of sched.TraceConfig: the wall-cap, backfill and checkpoint machinery
// stay rack-scope features (drive a single rack through sched.RunTraceCfg
// for those); the room runner adds the per-rack fault schedules.
type TraceConfig struct {
	Dt      float64 // simulation step, seconds; finite and > 0
	Horizon float64 // trace window, seconds; finite and > 0

	// Ctx, when non-nil, makes the run cooperatively cancellable: it is
	// checked at every decision-step boundary (each grid step on the fixed
	// path, each global segment on the event path — never mid-fan-out), and
	// a cancelled run stops there, returning the partial Result accumulated
	// so far together with an error wrapping ctx.Err(). Room runs have no
	// resume cursor (that is a rack-scope feature, see sched.ResumeTraceCfg);
	// cancellation is for bounding wall-clock, not for checkpointing.
	Ctx context.Context

	// EventStepping selects the event-driven kernel (see sched.RunPlant
	// and the package comment); false is the fixed-dt reference path.
	EventStepping bool

	// SampleEvery, in seconds, optionally bounds event-stepping segments at
	// a fixed telemetry cadence — which also bounds how long recirculation
	// offsets are held between re-anchors. 0 samples only at events; it
	// must be finite and ≥ 0.
	SampleEvery float64

	// Faults holds one deterministic fault schedule per rack (index i
	// drives rack i); nil entries and a nil slice are fault-free. Edges are
	// pinned to grid steps and applied serially exactly like the rack
	// runner's, clears before applies at a shared step, rack order breaking
	// remaining ties. Facility-scope kinds act on the room's shared bank
	// (see Room.ApplyFault).
	Faults []*fault.Schedule

	// DropOnFault switches fault kills from requeue-at-head to drop.
	DropOnFault bool

	// Metrics, when non-nil, receives the run's observability counters
	// (room.* names) plus every rack's physics roll-up (rack.MetricsInto,
	// folded serially after the run). Handle updates are atomic and
	// commutative, so dumps are byte-identical for every worker count.
	Metrics *obs.Registry
}

// RackKernelStats is one rack's kernel accounting over a run. The pin
// identity Advances − MacroWindows == Σ Pins holds by construction, per
// rack and (summed) room-wide.
type RackKernelStats = sched.RackKernelStats

// PinReasonNames returns the pin-reason taxonomy in attribution-priority
// order — the same list as sched.PinReasonNames; "room.pin." + name is the
// counter each appears under, and RackKernelStats.Pins is indexed the
// same way.
func PinReasonNames() []string { return sched.PinReasonNames() }

// Result summarizes the scheduling outcome of one room trace run; the
// physics outcome lives in Room.Telemetry.
type Result = sched.PlantResult

// RunTrace drives the room through the job trace under the two-level
// policy on sched's trace kernel (sched.RunPlant). The decision process —
// FIFO head, completions before fault edges before kills before arrivals
// before placements, float-exact step pinning — is the rack runner's,
// lifted one level: the chooser picks a rack, that rack's slot policy
// picks the slot, and a slot-policy refusal masks the rack (Blocked) and
// retries the chooser, so a job is refused only when every fitting rack
// refused it. All decisions run serially; only the physics between them
// fans out over racks.
func RunTrace(rm *Room, jobs []sched.Job, pol *Policy, tc TraceConfig) (Result, error) {
	if pol == nil || pol.Chooser == nil {
		return Result{}, fmt.Errorf("room: trace needs a placement policy")
	}
	if len(pol.Slots) != rm.NumRacks() {
		return Result{}, fmt.Errorf("room: policy has %d slot policies for %d racks", len(pol.Slots), rm.NumRacks())
	}
	pol.reset()
	return sched.RunPlant(rm, jobs, newPlacer(rm, pol), tc.plantConfig(), tc.Faults)
}

// plantConfig is the sched.TraceConfig a room run hands the trace kernel.
func (tc TraceConfig) plantConfig() sched.TraceConfig {
	return sched.TraceConfig{
		Dt: tc.Dt, Horizon: tc.Horizon, Ctx: tc.Ctx,
		EventStepping: tc.EventStepping, SampleEvery: tc.SampleEvery,
		DropOnFault: tc.DropOnFault, Metrics: tc.Metrics,
	}
}

// Settle advances the room with no offered load for `duration` seconds —
// the idle stabilization window room experiments run before their measured
// trace, with the same kernel they will measure under.
func Settle(rm *Room, dt, duration float64, eventStepping bool) error {
	return sched.SettlePlant(rm, dt, duration, eventStepping)
}

// placer is the room's placement decision for sched's trace kernel: the
// chooser proposes a rack, its slot policy places or refuses, and a
// refusal masks the rack for this job while the chooser retries over the
// rest.
//
// The rack views are kept between placements. A rack's view is rebuilt
// only when the room moved since the views were taken (Room.gen: a
// segment, a fault edge, a restore) or the dispatcher's loads on that rack
// differ from the ones the view holds — between two placements of one
// step only the receiving rack's view is rebuilt.
type placer struct {
	rm    *Room
	pol   *Policy
	views []RackView
	built bool   // views hold a complete snapshot...
	gen   uint64 // ...taken at this room generation
}

func newPlacer(rm *Room, pol *Policy) *placer {
	return &placer{rm: rm, pol: pol, views: make([]RackView, rm.NumRacks())}
}

// Pick implements the kernel's placement hook.
func (p *placer) Pick(j sched.Job, loads [][]units.Percent) (int, int, error) {
	p.refresh(loads)
	return p.choose(j)
}

// choose runs the chooser loop over the current views.
func (p *placer) choose(j sched.Job) (int, int, error) {
	for {
		ri := p.pol.Chooser.Choose(j, p.views)
		if ri < 0 {
			return -1, -1, nil
		}
		if ri >= len(p.views) || p.views[ri].Blocked {
			return -1, -1, fmt.Errorf("room: chooser %s proposed invalid or blocked rack %d for job %d",
				p.pol.Chooser.Name(), ri, j.ID)
		}
		if slot := p.pol.Slots[ri].Place(j, p.views[ri].Slots); slot >= 0 {
			return ri, slot, nil
		}
		p.views[ri].Blocked = true
	}
}

// Committed tells a stateful chooser its rack took the job.
func (p *placer) Committed(ri int) {
	if c, ok := p.pol.Chooser.(RackCommitter); ok {
		c.Committed(ri)
	}
}

// PolicyName names rack ri's slot policy in placement errors.
func (p *placer) PolicyName(ri int) string { return p.pol.Slots[ri].Name() }

// RefusalIsLoadOnly implements sched.LoadOnlyRefuser for the whole
// two-level decision (see Policy.loadOnly).
func (p *placer) RefusalIsLoadOnly() bool { return p.pol.loadOnly() }

// refresh brings the views up to date for a placement attempt against the
// dispatcher's loads — rebuilding the stale racks (see placer) — and
// clears every Blocked mask.
func (p *placer) refresh(loads [][]units.Percent) {
	all := !p.built || p.gen != p.rm.gen
	for ri := range p.views {
		if all || !sameLoads(p.views[ri].Slots, loads[ri]) {
			p.buildView(ri, loads[ri])
		}
		p.views[ri].Blocked = false
	}
	p.built, p.gen = true, p.rm.gen
}

// sameLoads reports whether slot views carry exactly the given loads.
func sameLoads(slots []sched.ServerView, loads []units.Percent) bool {
	if len(slots) != len(loads) {
		return false
	}
	for i := range slots {
		if slots[i].Load != loads[i] {
			return false
		}
	}
	return true
}

// buildView rebuilds rack ri's view (and its embedded per-slot views) from
// the dispatcher's loads and the rack's state.
func (p *placer) buildView(ri int, loads []units.Percent) {
	rk := p.rm.racks[ri]
	rv := &p.views[ri]
	rv.Index = ri
	rv.Name = p.rm.names[ri]
	rv.Servers = rk.NumServers()
	rv.Healthy = 0
	rv.Load, rv.Free, rv.MaxFree = 0, 0, 0
	rv.MaxInletC, rv.MaxCPUTempC = -1e9, -1e9
	rv.WallPowerW = float64(rk.WallPower())
	rv.RecircOffsetC = p.rm.offsets[ri]
	rv.RecircRowSum = p.rm.rowSums[ri]
	if rv.Slots == nil {
		rv.Slots = make([]sched.ServerView, rk.NumServers())
	}
	sched.FillViews(rv.Slots, rk, loads)
	for i := range rv.Slots {
		sv := &rv.Slots[i]
		rv.Load += sv.Load
		if sv.Health == rack.Healthy {
			rv.Healthy++
			rv.Free += sv.Free
			if sv.Free > rv.MaxFree {
				rv.MaxFree = sv.Free
			}
		}
		if sv.MaxCPUTemp > rv.MaxCPUTempC {
			rv.MaxCPUTempC = sv.MaxCPUTemp
		}
		if sv.InletTemp > rv.MaxInletC {
			rv.MaxInletC = sv.InletTemp
		}
	}
}
