package sched

import (
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/units"
)

// plant is the physics a trace advances: N racks behind one barrier. A
// bare rack is a one-rack plant (rackPlant); internal/room's Room is the
// many-rack one.
type plant interface {
	NumRacks() int
	Rack(i int) *rack.Rack
	Now() float64
	// Segment crosses `steps` grid steps of dt: cross(i) runs once per rack
	// — possibly concurrently, writing only rack i's state — then the
	// barrier runs.
	Segment(dt float64, steps int, cross func(i int))
	ApplyFault(i int, ev fault.Event) error
	ClearFault(i int, ev fault.Event) error
}

// rackPlant is a bare rack as a one-rack plant: no barrier.
type rackPlant struct{ r *rack.Rack }

func (p rackPlant) NumRacks() int                             { return 1 }
func (p rackPlant) Rack(int) *rack.Rack                       { return p.r }
func (p rackPlant) Now() float64                              { return p.r.Now() }
func (p rackPlant) Segment(_ float64, _ int, cross func(int)) { cross(0) }
func (p rackPlant) ApplyFault(_ int, ev fault.Event) error    { return p.r.ApplyFault(ev) }
func (p rackPlant) ClearFault(_ int, ev fault.Event) error    { return p.r.ClearFault(ev) }

// placer is the one decision a rack run and a room run take differently.
// Pick proposes a site for j against the committed loads, or rack < 0 to
// leave j queued; the kernel validates the site and calls Committed once
// the placement lands. PolicyName names rack i's slot policy in errors.
type placer interface {
	LoadOnlyRefuser
	Pick(j Job, loads [][]units.Percent) (rackIdx, slot int, err error)
	Committed(rackIdx int)
	PolicyName(rackIdx int) string
}

// policyPlacer is a rack run's placer: the single Policy over the rack's
// views, rebuilt for every attempt so same-step placements are seen.
type policyPlacer struct {
	p     Policy
	r     *rack.Rack
	views []ServerView
}

func (pp *policyPlacer) Pick(j Job, loads [][]units.Percent) (int, int, error) {
	FillViews(pp.views, pp.r, loads[0])
	if slot := pp.p.Place(j, pp.views); slot >= 0 {
		return 0, slot, nil
	}
	return -1, -1, nil
}

func (pp *policyPlacer) Committed(int)           {}
func (pp *policyPlacer) PolicyName(int) string   { return pp.p.Name() }
func (pp *policyPlacer) RefusalIsLoadOnly() bool { return RefusalIsLoadOnly(pp.p) }

// FillViews writes the dispatcher's per-slot snapshot of rack r into views
// (one entry per server): the committed loads plus the rack's current
// temperatures, draws and health.
func FillViews(views []ServerView, r *rack.Rack, loads []units.Percent) {
	for i := range views {
		// Field by field through a pointer: assigning a composite literal
		// builds the view on the stack and block-copies it into the slice.
		v := &views[i]
		srv := r.Server(i)
		v.Index = i
		v.Name = r.Name(i)
		v.Load = loads[i]
		v.Free = 100 - loads[i]
		v.MaxCPUTemp = srv.MaxCPUTemp()
		v.InletTemp = srv.InletTemp()
		v.DCPower = r.ServerDCPower(i)
		v.WallPower = r.ServerWallPower(i)
		v.Health = r.Health(i)
	}
}

// RackKernelStats is one rack's kernel accounting over a plant run. The
// pin identity Advances − MacroWindows == Σ Pins holds by construction.
type RackKernelStats struct {
	Advances     int   // rack advances (fixed-dt steps and event-kernel chunks)
	MacroWindows int   // chunks spanning > 1 grid step
	Pins         []int // single-step chunks by reason, indexed as PinReasonNames
}

// PlantResult summarizes the scheduling outcome of a plant run
// (room.Result); the physics outcome lives in the plant's telemetry.
type PlantResult struct {
	Submitted   int
	Completed   int
	Placed      int
	MeanWaitSec float64
	MaxQueueLen int

	Requeued       int
	Lost           int
	LostJobSeconds float64

	Segments  int // global segments processed (fixed-dt: one per step)
	GridSteps int // fixed-dt grid steps crossed (Σ segment lengths == horizon/dt)

	// Kernel holds per-rack kernel accounting, indexed by rack.
	Kernel []RackKernelStats

	// Metrics echoes TraceConfig.Metrics after the run's counters have been
	// folded in; nil when no registry was attached.
	Metrics *obs.Registry
}

// RunPlant drives a plant of racks — internal/room's Room — through the
// job trace on RunTraceCfg's kernels, with placement delegated to pick,
// one fault schedule per rack (faults[i]; nil entries are fault-free) and
// room.* metric names. With more than one rack, each rack's controller
// horizon bounds only its own chunks inside the event segments; a
// one-rack plant runs exactly like RunTraceCfg. The wall cap, backfill,
// tc.Faults and checkpoints are rack-scope: room.RunTrace leaves them
// zero, a cancelled run returns an error wrapping the context's, and
// Diverged has no Checkpoint.
func RunPlant(pl plant, jobs []Job, pick placer, tc TraceConfig, faults []*fault.Schedule) (PlantResult, error) {
	e, err := newRun(pl, pick, jobs, tc, faults, roomScope)
	if err != nil {
		return PlantResult{}, err
	}
	e.m.submitted.Add(int64(len(jobs)))
	res, err := e.run()
	return PlantResult{
		Submitted: res.Submitted, Completed: res.Completed, Placed: res.Placed,
		MeanWaitSec: res.MeanWaitSec, MaxQueueLen: res.MaxQueueLen,
		Requeued: res.Requeued, Lost: res.Lost, LostJobSeconds: res.LostJobSeconds,
		Segments: res.RackSteps, GridSteps: e.gridSteps, Kernel: e.kernel, Metrics: res.Metrics,
	}, err
}

// SettlePlant is Settle for a plant of racks (room.Settle).
func SettlePlant(pl plant, dt, duration float64, eventStepping bool) error {
	return settle(pl, dt, duration, eventStepping, roomScope)
}
