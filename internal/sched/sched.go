package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

// Job is one schedulable unit of work.
type Job struct {
	ID       int
	Arrival  float64       // seconds from trace start
	Duration float64       // service time, seconds
	Demand   units.Percent // CPU demand on the server that runs it
}

// JobsFromSpecs converts a loadgen trace into scheduler jobs, assigning
// sequential IDs in arrival order.
func JobsFromSpecs(specs []loadgen.JobSpec) []Job {
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = Job{ID: i, Arrival: s.Arrival, Duration: s.Duration, Demand: s.Demand}
	}
	return jobs
}

// ServerView is the dispatcher's telemetry snapshot of one server at a
// placement instant.
type ServerView struct {
	Index      int // slot in the rack
	Name       string
	Load       units.Percent // demand already scheduled on it
	Free       units.Percent // remaining capacity (100 − Load)
	MaxCPUTemp units.Celsius // hottest true die temperature
	InletTemp  units.Celsius // current CPU inlet air temperature
	DCPower    units.Watts   // instantaneous total DC draw
	WallPower  units.Watts   // DC draw lifted through the slot's PSU
	// Health is the slot's degradation state (rack.Health). Only Healthy
	// slots may take placements; the zero value is Healthy, so views built
	// without fault awareness stay placeable.
	Health rack.Health
}

// Policy decides where a job runs. Place returns the chosen rack slot, or
// -1 to leave the job queued (e.g. no server has the capacity). Views are
// presented in rack order; implementations must be deterministic, breaking
// ties by the lowest index.
type Policy interface {
	Name() string
	// Reset clears internal state so a policy can be reused across runs.
	Reset()
	Place(j Job, views []ServerView) int
}

// Fits reports whether server v can take the job at all: it must be
// healthy — tripped and failed slots are out of rotation until their
// fault clears — with enough free capacity for the demand. Every shipped
// policy, and the room choosers pricing slots, filter candidates through
// this predicate, which is what keeps them all fault-aware at once.
func Fits(v ServerView, j Job) bool { return v.Health == rack.Healthy && v.Free >= j.Demand }

// LoadOnlyRefuser is the opt-in Policy attribute behind the event kernel's
// backlog un-pin: a policy returning true promises that its *refusal*
// (Place returning -1) depends only on the views' Load/Free/Health fields
// — never on temperatures, powers or internal clocks — and that a refused
// Place call mutates no internal state. Loads and health change only at
// scheduling events (completions, kills, fault edges, arrivals), which are
// all macro-window wake bounds, so a load-only refusal observed at one
// decision step provably holds at every skipped step until the next event:
// the kernel may macro-step completion-to-completion over a non-empty
// backlog instead of retrying the blocked head every dt. Refusal is
// monotone in load for every shipped policy (refusal == no view passes
// Fits), so placements can only make a refused head more refused, never
// less. Policies whose *choice* reads evolving telemetry (coolest-first,
// leakage/cap/pue-aware) must stay conservative: their refusal is still
// load-only, but opting in is deliberately limited to policies whose whole
// decision is — the blind round-robin and least-utilized baselines — so
// the attribute never has to reason about tie-breaks drifting between
// kernels.
type LoadOnlyRefuser interface {
	RefusalIsLoadOnly() bool
}

// RefusalIsLoadOnly reports whether p opted into the load-only refusal
// contract (see LoadOnlyRefuser); policies that do not implement the
// interface stay conservative.
func RefusalIsLoadOnly(p Policy) bool {
	lr, ok := p.(LoadOnlyRefuser)
	return ok && lr.RefusalIsLoadOnly()
}

// ---------------------------------------------------------------------------
// Round-robin

// RoundRobin rotates placements across servers regardless of their state —
// the thermally blind baseline every datacenter dispatcher starts from.
type RoundRobin struct{ next int }

// NewRoundRobin returns the rotating baseline policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Reset implements Policy.
func (p *RoundRobin) Reset() { p.next = 0 }

// RefusalIsLoadOnly implements LoadOnlyRefuser: the rotation reads only
// Fits (load + health), and a refused Place leaves the cursor untouched.
func (p *RoundRobin) RefusalIsLoadOnly() bool { return true }

// Place implements Policy: the first server at or after the cursor with
// enough capacity.
func (p *RoundRobin) Place(j Job, views []ServerView) int {
	n := len(views)
	for k := 0; k < n; k++ {
		v := views[(p.next+k)%n]
		if Fits(v, j) {
			p.next = (v.Index + 1) % n
			return v.Index
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Least-utilized

// LeastUtilized places each job on the server with the most free capacity,
// the classic load-balancing heuristic (still thermally blind).
type LeastUtilized struct{}

// NewLeastUtilized returns the load-balancing policy.
func NewLeastUtilized() *LeastUtilized { return &LeastUtilized{} }

// Name implements Policy.
func (p *LeastUtilized) Name() string { return "least-utilized" }

// Reset implements Policy.
func (p *LeastUtilized) Reset() {}

// RefusalIsLoadOnly implements LoadOnlyRefuser: both the refusal and the
// choice read only Load/Free/Health, and the policy is stateless.
func (p *LeastUtilized) RefusalIsLoadOnly() bool { return true }

// Place implements Policy.
func (p *LeastUtilized) Place(j Job, views []ServerView) int {
	best := -1
	var bestLoad units.Percent
	for _, v := range views {
		if !Fits(v, j) {
			continue
		}
		if best < 0 || v.Load < bestLoad {
			best = v.Index
			bestLoad = v.Load
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Coolest-server-first

// CoolestFirst places each job on the feasible server with the lowest die
// temperature — the reactive thermal heuristic. On a heterogeneous rack
// this naturally prefers cold-aisle machines until load warms them past
// their hot-aisle peers.
type CoolestFirst struct{}

// NewCoolestFirst returns the reactive thermal policy.
func NewCoolestFirst() *CoolestFirst { return &CoolestFirst{} }

// Name implements Policy.
func (p *CoolestFirst) Name() string { return "coolest-first" }

// Reset implements Policy.
func (p *CoolestFirst) Reset() {}

// Place implements Policy.
func (p *CoolestFirst) Place(j Job, views []ServerView) int {
	best := -1
	var bestTemp units.Celsius
	for _, v := range views {
		if !Fits(v, j) {
			continue
		}
		if best < 0 || v.MaxCPUTemp < bestTemp {
			best = v.Index
			bestTemp = v.MaxCPUTemp
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Leakage-aware

// LeakageAware is the proactive policy the paper's machinery enables: for
// every server it precomputes (via internal/lut, i.e. server.SteadyTemp
// under the 75 °C cap) the steady-state fan+leakage power at each
// utilization level, and places each job where the predicted marginal
// fan+leakage power of adding that job's demand is lowest. Active and
// memory power are placement-invariant (the job costs k1·U wherever it
// runs), so the marginal fan+leak term is exactly what a placement can
// save.
type LeakageAware struct {
	tables []*lut.Table // per rack slot
}

// NewLeakageAware precomputes the per-server cost curves with
// lut.BuildPerConfig (identical-physics configs share one build).
func NewLeakageAware(cfgs []server.Config, build lut.BuildConfig) (*LeakageAware, error) {
	tables, err := lut.BuildPerConfig(cfgs, build)
	if err != nil {
		return nil, fmt.Errorf("sched: leakage-aware tables: %w", err)
	}
	return NewLeakageAwareFromTables(tables)
}

// NewLeakageAwareFromTables builds the policy over already-built per-slot
// cost tables (slot i of the rack uses tables[i]). Callers that have
// LUTs for the rack's fan controllers anyway — the rack experiment — can
// hand the same tables in instead of paying for a second grid of
// steady-state solves.
func NewLeakageAwareFromTables(tables []*lut.Table) (*LeakageAware, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("sched: leakage-aware needs at least one table")
	}
	for i, t := range tables {
		if t == nil || len(t.Entries) == 0 {
			return nil, fmt.Errorf("sched: leakage-aware table %d is empty", i)
		}
	}
	return &LeakageAware{tables: tables}, nil
}

// Name implements Policy.
func (p *LeakageAware) Name() string { return "leakage-aware" }

// Reset implements Policy.
func (p *LeakageAware) Reset() {}

// SteadyFanLeakMarginal returns the predicted steady-state fan+leakage
// increase of raising utilization u by d, read from a per-slot cost table
// (lut.Build over server.SteadyTemp). It is the slow, thermally settled
// half of a placement's power cost — the half MarginalDCPower deliberately
// excludes — shared by the table-driven policies and the conservative
// cap-admission estimate.
func SteadyFanLeakMarginal(t *lut.Table, u, d units.Percent) (units.Watts, error) {
	before, err := t.EntryFor(u)
	if err != nil {
		return 0, err
	}
	after, err := t.EntryFor(u + d)
	if err != nil {
		return 0, err
	}
	return after.FanLeakPower - before.FanLeakPower, nil
}

// marginal returns the predicted steady-state fan+leakage increase of
// placing demand d on server i currently loaded at u.
func (p *LeakageAware) marginal(i int, u, d units.Percent) (units.Watts, error) {
	return SteadyFanLeakMarginal(p.tables[i], u, d)
}

// Place implements Policy.
func (p *LeakageAware) Place(j Job, views []ServerView) int {
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !Fits(v, j) {
			continue
		}
		cost, err := p.marginal(v.Index, v.Load, j.Demand)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Cap-aware (wall-power aware)

// CapAware is the delivery-chain-aware refinement of LeakageAware: it
// predicts each placement's marginal *wall* power instead of its marginal
// DC power. The steady-state fan+leakage marginal comes from the same
// per-slot LUTs; the placement-invariant active+memory marginal is added
// back (DC-invariant terms stop being placement-invariant at the wall,
// because each PSU's efficiency depends on how loaded that server already
// is); and the total DC increment is lifted through the slot's PSU curve
// at the server's current draw. Ranking by marginal PSU input is ranking
// by marginal wall power: the shared PDU is monotone in its summed input
// and identical across candidates, so it drops out of the comparison.
type CapAware struct {
	tables []*lut.Table
	models []power.ServerModel
	psus   []*power.PSUModel // nil slice or nil entries = ideal supplies
}

// NewCapAware precomputes per-slot cost curves with lut.BuildPerConfig and
// builds the wall-power-aware policy. psus may be nil (every supply ideal)
// or hold one entry per slot, nil entries meaning an ideal supply.
func NewCapAware(cfgs []server.Config, psus []*power.PSUModel, build lut.BuildConfig) (*CapAware, error) {
	tables, err := lut.BuildPerConfig(cfgs, build)
	if err != nil {
		return nil, fmt.Errorf("sched: cap-aware tables: %w", err)
	}
	models := make([]power.ServerModel, len(cfgs))
	for i, cfg := range cfgs {
		models[i] = cfg.Power
	}
	return NewCapAwareFromTables(tables, models, psus)
}

// NewCapAwareFromTables builds the policy over already-built per-slot cost
// tables and power models (slot i uses tables[i]/models[i]/psus[i]).
func NewCapAwareFromTables(tables []*lut.Table, models []power.ServerModel, psus []*power.PSUModel) (*CapAware, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("sched: cap-aware needs at least one table")
	}
	if len(models) != len(tables) {
		return nil, fmt.Errorf("sched: cap-aware has %d tables but %d power models", len(tables), len(models))
	}
	if psus != nil && len(psus) != len(tables) {
		return nil, fmt.Errorf("sched: cap-aware has %d tables but %d PSUs", len(tables), len(psus))
	}
	for i, t := range tables {
		if t == nil || len(t.Entries) == 0 {
			return nil, fmt.Errorf("sched: cap-aware table %d is empty", i)
		}
	}
	return &CapAware{tables: tables, models: models, psus: psus}, nil
}

// Name implements Policy.
func (p *CapAware) Name() string { return "cap-aware" }

// Reset implements Policy.
func (p *CapAware) Reset() {}

// marginalWall returns the predicted marginal wall power of placing demand
// d on the server behind view v: the steady fan+leak increment from the
// LUT plus the active+memory increment, lifted through the slot's PSU at
// the server's current DC draw.
func (p *CapAware) marginalWall(v ServerView, d units.Percent) (units.Watts, error) {
	steady, err := SteadyFanLeakMarginal(p.tables[v.Index], v.Load, d)
	if err != nil {
		return 0, err
	}
	mdc := steady + MarginalDCPower(p.models[v.Index], v.Load, d)
	psu := p.psuFor(v.Index)
	if psu == nil {
		return mdc, nil
	}
	return psu.Wall(v.DCPower+mdc) - psu.Wall(v.DCPower), nil
}

func (p *CapAware) psuFor(i int) *power.PSUModel {
	if p.psus == nil || i >= len(p.psus) {
		return nil
	}
	return p.psus[i]
}

// Place implements Policy: the feasible server with the lowest predicted
// marginal wall power, ties to the lowest index.
func (p *CapAware) Place(j Job, views []ServerView) int {
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !Fits(v, j) || v.Index >= len(p.tables) {
			continue
		}
		cost, err := p.marginalWall(v, j.Demand)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// PUE-aware (facility aware)

// PUEAware is the facility-scope refinement of CapAware: it predicts each
// placement's marginal *facility* power — the marginal wall power plus the
// marginal CRAC/chiller power spent removing it as heat. Two things change
// relative to cap-aware. First, the cost tables are built at the ambients
// the CRAC actually supplies (the configured ambients shifted by the
// setpoint delta), so the steady fan+leak marginals stay calibrated when
// the operator moves the cold aisle — a facility-blind policy's tables go
// stale the moment the setpoint moves. Second, the wall marginal is
// amplified by the facility's own response: the cooling power added by one
// more wall Watt at the rack's current operating point. The amplification
// is monotone and common to every candidate, so within one placement it
// preserves the wall ranking — the recalibrated tables are what move
// decisions; the amplification is what makes the predicted cost the number
// the facility actually pays.
type PUEAware struct {
	inner *CapAware
	fac   cooling.Facility
}

// NewPUEAware builds the facility-aware policy: per-slot cost tables are
// built at setpoint-corrected ambients (each config's Ambient shifted by
// fac.AmbientDelta), then composed with the slots' PSU curves and the
// facility's cooling response. psus may be nil (ideal supplies) or one
// entry per slot.
func NewPUEAware(cfgs []server.Config, psus []*power.PSUModel, fac cooling.Facility, build lut.BuildConfig) (*PUEAware, error) {
	if err := fac.Validate(); err != nil {
		return nil, fmt.Errorf("sched: pue-aware facility: %w", err)
	}
	shifted := make([]server.Config, len(cfgs))
	delta := fac.AmbientDelta()
	for i, cfg := range cfgs {
		shifted[i] = cfg.ShiftAmbient(delta)
	}
	inner, err := NewCapAware(shifted, psus, build)
	if err != nil {
		return nil, fmt.Errorf("sched: pue-aware tables: %w", err)
	}
	return &PUEAware{inner: inner, fac: fac}, nil
}

// NewPUEAwareFromTables builds the policy over already-built per-slot cost
// tables — which the caller must have built at the facility's operating
// ambients — power models and PSUs (slot i uses tables[i]/models[i]/psus[i]).
func NewPUEAwareFromTables(tables []*lut.Table, models []power.ServerModel, psus []*power.PSUModel, fac cooling.Facility) (*PUEAware, error) {
	if err := fac.Validate(); err != nil {
		return nil, fmt.Errorf("sched: pue-aware facility: %w", err)
	}
	inner, err := NewCapAwareFromTables(tables, models, psus)
	if err != nil {
		return nil, fmt.Errorf("sched: pue-aware: %w", err)
	}
	return &PUEAware{inner: inner, fac: fac}, nil
}

// Name implements Policy.
func (p *PUEAware) Name() string { return "pue-aware" }

// Reset implements Policy.
func (p *PUEAware) Reset() { p.inner.Reset() }

// marginalFacility returns the predicted marginal facility power of
// placing demand d on the server behind view v, given the rack's current
// total wall draw: the marginal wall power plus the extra cooling power
// the facility spends removing it.
func (p *PUEAware) marginalFacility(v ServerView, d units.Percent, rackWallW float64) (units.Watts, error) {
	mw, err := p.inner.marginalWall(v, d)
	if err != nil {
		return 0, err
	}
	cool := p.fac.CoolingPower(rackWallW+float64(mw)) - p.fac.CoolingPower(rackWallW)
	return mw + units.Watts(cool), nil
}

// Place implements Policy: the feasible server with the lowest predicted
// marginal facility power, ties to the lowest index. The rack's wall draw
// is approximated as the sum of the per-slot PSU inputs the views carry
// (the shared PDU sits between them and the true wall, and is monotone).
func (p *PUEAware) Place(j Job, views []ServerView) int {
	var rackWallW float64
	for _, v := range views {
		rackWallW += float64(v.WallPower)
	}
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !Fits(v, j) || v.Index >= len(p.inner.tables) {
			continue
		}
		cost, err := p.marginalFacility(v, j.Demand, rackWallW)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// MarginalDCPower returns the DC power increment of raising utilization u
// by d on a server with power model m, counting the utilization-driven
// components (active CPU and memory/IO). Fan and leakage responses are
// slower and policy-dependent; the cap-aware policy adds them from its
// steady-state tables, while the capped trace runner deliberately uses
// only this fast, model-exact part as its admission estimate.
func MarginalDCPower(m power.ServerModel, u, d units.Percent) units.Watts {
	return m.Active.Power(u+d) - m.Active.Power(u) + m.Memory.Power(u+d) - m.Memory.Power(u)
}

// ---------------------------------------------------------------------------
// Trace runner

// Result summarizes the scheduling outcome of one trace run; the physics
// outcome lives in the rack's Telemetry.
type Result struct {
	Submitted   int
	Completed   int     // jobs that finished within the horizon
	Placed      int     // jobs currently or finally placed (kills decrement, re-placements increment)
	MeanWaitSec float64 // mean of the waits charged at every placement, over net Placed
	MaxQueueLen int     // worst backlog observed
	Deferrals   int     // placements deferred by the wall-power cap
	RackSteps   int     // kernel segments (a rack run's advances): fixed-dt = horizon/dt; event mode = decision steps

	// Backfills counts placements made by the FIFO backfill pass
	// (TraceConfig.Backfill): jobs placed past a blocked queue head. Each
	// is also counted in Placed; zero whenever backfill is off.
	Backfills int

	// Degradation outcome (zero on a fault-free run).
	Requeued int // job kills that rejoined the backlog head (a job can count twice)
	Lost     int // jobs abandoned under TraceConfig.DropOnFault
	// LostJobSeconds totals the work destroyed by kills: the discarded
	// progress of each requeued job (it restarts from scratch) plus the
	// full duration of each dropped job (its service is never delivered).
	LostJobSeconds float64

	// Metrics echoes TraceConfig.Metrics after the run's counters — the
	// kernel's pin-reason breakdown, the scheduling counts, the rack's
	// propagator and macro attribution — have been folded in. nil when no
	// registry was attached.
	Metrics *obs.Registry
}

// TraceConfig parameterizes a trace run.
type TraceConfig struct {
	Dt      float64 // simulation step, seconds; finite and > 0
	Horizon float64 // trace window, seconds; finite and > 0

	// WallCapW, when positive, is the rack-level wall-power budget: a
	// placement whose predicted post-placement wall draw strictly exceeds
	// the cap is deferred — the FIFO head blocks and is retried on every
	// subsequent step, so capped runs stay deterministic and starvation
	// free (later jobs never overtake a deferred head). The prediction is
	// rack.WallPowerWithAll over the utilization-driven DC increments
	// (MarginalDCPower) of this job plus every placement already admitted
	// in the same step, whose power the physics has not drawn yet; a
	// placement landing exactly on the cap is admitted. Zero disables
	// capping.
	WallCapW float64

	// CapMarginal, when non-nil, holds one steady-state cost table per
	// rack slot (the same per-slot tables the leakage-aware policies are
	// built from; nil entries fall back to the fast estimate) and makes
	// cap admission conservative: the LUT steady fan+leak marginal is
	// added — clamped at zero, so the estimate can only grow — to
	// MarginalDCPower in the wall-cap check. The fast estimate alone
	// counts only the utilization-driven increment, so fan and leakage
	// transients settling after admission can push the wall draw past the
	// cap; the conservative estimate charges the settled cost up front and
	// therefore defers no later (and possibly earlier) than the fast one.
	CapMarginal []*lut.Table

	// EventStepping selects the event-driven kernel: between consecutive
	// events — job arrivals, job completions, controller wake-ups,
	// optional telemetry samples — the rack advances in one closed-form
	// macro window (rack.Advance) instead of gap/dt fixed steps, so
	// wall-clock scales with the number of scheduling events rather than
	// the horizon. Scheduling decisions are taken at exactly the same grid
	// steps as the fixed-dt path, so placements, deferral counts and queue
	// statistics are identical; energies agree to the macro-stepping drift
	// tolerance (≤1e-6 relative, see server.Config.MacroDriftTolC). While
	// the backlog is non-empty — unless the policy promises load-only
	// refusals (LoadOnlyRefuser) and no wall cap is set, in which case the
	// kernel macro-steps completion-to-completion over the blocked head —
	// or whenever some fan controller cannot promise a quiet horizon
	// (control.HorizonPromiser), the kernel pins itself to fixed-dt
	// stepping. false — the default — is the fixed-dt reference path,
	// bit-identical to prior behaviour.
	EventStepping bool

	// Backfill enables a FIFO backfill pass whenever the queue head blocks
	// (policy refusal or cap deferral): the remaining queued jobs are tried
	// once each, in arrival order, against the same invalid/overload/health
	// checks and the same pendingDC cap admission the head failed, and
	// placed where accepted. The head keeps strict priority — a backfilled
	// placement only consumes capacity, which can never un-refuse the head
	// (refusal is monotone in load for every shipped policy) — but arrival
	// fairness weakens from strict FIFO to head-priority-only: a small job
	// behind a large blocked head may run first, indefinitely often under
	// sustained overload. Cap-blocked backfill candidates are skipped
	// without counting a Deferral (the deferral meter stays head-only).
	// Off (the default) preserves strict FIFO and bit-identical results.
	Backfill bool

	// SampleEvery, in seconds, optionally forces an event-stepping wake at
	// a fixed telemetry cadence, bounding how coarse the peak/maxima
	// sampling can get inside long quiet gaps. 0 (the default) samples
	// only at events and macro sub-step boundaries; it must be finite and
	// ≥ 0 (+Inf would pin every step, not disable sampling). Ignored by the
	// fixed-dt path, which observes every step anyway. Align it with
	// rack.Config.ReliabilitySampleEvery so reliability samples land on
	// identical instants in both stepping modes.
	SampleEvery float64

	// Faults, when non-nil and non-empty, is the deterministic fault
	// schedule (internal/fault) injected through the run. Every event's
	// inject and clear times are pinned up front to the first grid step at
	// or after them — the same integer-step arithmetic that keeps arrivals
	// exact under a non-integer dt — and applied serially at those steps,
	// clears before applies at a shared instant, before any placement
	// decision of the step. Jobs running on a server that turns unhealthy
	// are killed the same instant: requeued at the backlog head in
	// kill order (the default), or abandoned under DropOnFault. A job
	// completing exactly at a fault instant completes — completions are
	// processed first. An empty or nil schedule leaves every metric
	// bit-identical to a fault-free run.
	Faults *fault.Schedule

	// DropOnFault switches the kill policy from requeue-at-head to drop:
	// killed jobs are counted Lost and never rejoin the backlog. Use it to
	// model work without a retry path (the default models idempotent batch
	// jobs restarted from scratch).
	DropOnFault bool

	// Ctx, when non-nil, is the run's cooperative cancellation: it is
	// checked at every decision-step boundary (fixed kernel: every grid
	// step; event kernel: every macro-window boundary), never mid-advance.
	// A cancelled run stops at the boundary and returns the partial Result
	// together with a *Cancelled error whose Checkpoint resumes the run
	// (ResumeTraceCfg) byte-identically to the uninterrupted one. nil — the
	// default — never cancels and adds no per-step cost.
	Ctx context.Context

	// CheckpointEvery, in seconds of simulated time, is the periodic
	// checkpoint cadence: at the first decision-step boundary at or past
	// each multiple, the run's full state is captured and handed to
	// CheckpointSink. Setting either checkpoint field requires the other;
	// CheckpointEvery must be positive and finite. Zero with a nil sink —
	// the default — disables periodic checkpointing entirely.
	CheckpointEvery float64

	// CheckpointSink receives each periodic checkpoint. A sink error
	// aborts the run and is returned verbatim — which doubles as a precise
	// interrupt-at-T mechanism for tests. The sink runs serially on the
	// run's goroutine; what it does with the Checkpoint (snap.EncodeFile,
	// usually) is its own business.
	CheckpointSink func(Checkpoint) error

	// Metrics, when non-nil, receives the run's observability counters:
	// per-advance kernel accounting (steps, macro windows, window-length
	// histogram, the pin-reason breakdown) during the run, scheduling
	// counts as they happen, and the rack's propagator/macro/fault roll-up
	// (rack.MetricsInto) after the loop. Handles are fetched once at run
	// start; per-step updates are atomic, commutative and allocation-free,
	// so one registry may be shared by concurrent runs (the experiments
	// fan-out does exactly that) and still dump byte-identically for every
	// worker count — see internal/obs. nil (the default) records nothing
	// and leaves every result and golden table bit-identical.
	Metrics *obs.Registry
}

// active is a placed job with its completion time and site. The original
// Job and the placement instant ride along so a fault-kill can requeue it
// and account the discarded progress.
type active struct {
	end    float64
	rack   int
	slot   int
	demand units.Percent
	job    Job
	start  float64 // elapsed (trace-relative) placement instant
}

// faultAction is one pinned fault edge: apply or clear ev on rack `rack`
// at grid step k.
type faultAction struct {
	k     int
	rack  int
	apply bool
	ev    fault.Event
}

// RunTrace drives the rack through the job trace under the policy with a
// fixed step dt, from rack-time start for horizon seconds, with no wall
// cap. See RunTraceCfg.
func RunTrace(r *rack.Rack, jobs []Job, p Policy, dt, horizon float64) (Result, error) {
	return RunTraceCfg(r, jobs, p, TraceConfig{Dt: dt, Horizon: horizon})
}

// RunTraceCfg drives the rack through the job trace under the policy. Jobs
// are placed FIFO — the queue head blocks until it fits (and, when
// tc.WallCapW is set, until its placement keeps the predicted wall draw at
// or under the cap), preserving arrival fairness and keeping placement
// order deterministic. Loads are applied before each step, so a job's
// demand is charged from the step after its placement. The step count is
// computed up front and elapsed time as k·dt, so a non-integer dt cannot
// drift the window length or event timing the way an accumulated
// `elapsed += dt` would (cf. the thermal RK4 substep fix).
//
// With tc.EventStepping the same decision process runs event-driven: the
// kernel only visits the grid steps where something can happen and
// advances the rack across the quiet gaps in closed-form macro windows
// (see TraceConfig.EventStepping).
func RunTraceCfg(r *rack.Rack, jobs []Job, p Policy, tc TraceConfig) (Result, error) {
	e, err := newTraceRun(r, jobs, p, tc)
	if err != nil {
		return Result{}, err
	}
	p.Reset()
	e.m.submitted.Add(int64(len(jobs)))
	return e.run()
}

// newTraceRun validates the configuration and builds the rack run state
// shared by RunTraceCfg and ResumeTraceCfg — everything up to, but
// excluding, the fresh-run-only initialization (policy reset, submitted
// count) a resume must skip.
func newTraceRun(r *rack.Rack, jobs []Job, p Policy, tc TraceConfig) (*traceRun, error) {
	if tc.CheckpointSink != nil || tc.CheckpointEvery != 0 {
		if !positiveFinite(tc.CheckpointEvery) {
			return nil, fmt.Errorf("sched: CheckpointEvery must be positive and finite, got %g", tc.CheckpointEvery)
		}
		if tc.CheckpointSink == nil {
			return nil, fmt.Errorf("sched: CheckpointEvery set without a CheckpointSink")
		}
	}
	pick := &policyPlacer{p: p, r: r, views: make([]ServerView, r.NumServers())}
	e, err := newRun(rackPlant{r}, pick, jobs, tc, []*fault.Schedule{tc.Faults}, rackScope)
	if err != nil {
		return nil, err
	}
	e.rk, e.p = r, p
	e.pendingDC = make([]units.Watts, r.NumServers())
	return e, nil
}

// positiveFinite reports whether x is usable as a step, span or cadence:
// strictly positive and not +Inf (NaN fails the comparison).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// newRun validates what every trace run needs and builds the kernel state
// for plant pl: one load vector, kernel-stats row and state-sum slot per
// rack, and the pinned edges of the per-rack fault schedules (faults[i]
// targets rack i; nil entries are fault-free).
func newRun(pl plant, pick placer, jobs []Job, tc TraceConfig, faults []*fault.Schedule, names scopeNames) (*traceRun, error) {
	if !positiveFinite(tc.Dt) || !positiveFinite(tc.Horizon) {
		return nil, fmt.Errorf("%s: dt and horizon must be positive and finite, got dt=%g horizon=%g", names.err, tc.Dt, tc.Horizon)
	}
	if !(tc.Horizon/tc.Dt < 1<<53) {
		// Past 2^53 the grid-step count overflows or stops being exact.
		return nil, fmt.Errorf("%s: horizon/dt = %g grid steps is too many", names.err, tc.Horizon/tc.Dt)
	}
	if !(tc.SampleEvery >= 0) || math.IsInf(tc.SampleEvery, 1) {
		return nil, fmt.Errorf("%s: SampleEvery must be finite and non-negative, got %g", names.err, tc.SampleEvery)
	}
	if !sort.SliceIsSorted(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival }) {
		return nil, fmt.Errorf("%s: jobs must be sorted by arrival time", names.err)
	}
	n := pl.NumRacks()
	if len(faults) > 0 && len(faults) != n {
		return nil, fmt.Errorf("%s: %d fault schedules for %d racks (one per rack, nil entries allowed)", names.err, len(faults), n)
	}
	e := &traceRun{
		pl:       pl,
		pick:     pick,
		lone:     n == 1,
		names:    names,
		jobs:     jobs,
		tc:       tc,
		dt:       tc.Dt,
		res:      Result{Submitted: len(jobs)},
		loads:    make([][]units.Percent, n),
		kernel:   make([]RackKernelStats, n),
		sums:     make([]float64, n),
		start:    pl.Now(),
		steps:    int(math.Ceil(tc.Horizon/tc.Dt - 1e-9)),
		nextCkpt: tc.CheckpointEvery,
		hooks:    tc.Ctx != nil || tc.CheckpointSink != nil,
		m:        newRunMetrics(tc.Metrics, names),
		// The backlog un-pin engages only when the head's block is provably
		// invariant between events: a load-only refusal. A wall cap makes
		// deferrals depend on the evolving wall draw (fan and leakage
		// transients), so capped runs keep the conservative per-step retry.
		backlogMacro: tc.WallCapW <= 0 && pick.RefusalIsLoadOnly(),
	}
	for i := range e.loads {
		e.loads[i] = make([]units.Percent, pl.Rack(i).NumServers())
		e.kernel[i].Pins = make([]int, pinReasons)
	}
	if err := e.buildFaultActions(faults); err != nil {
		return nil, err
	}
	e.stepFn = e.stepRack
	e.crossFn = e.crossSegment
	return e, nil
}

// run executes the configured kernel and folds the post-run accounting —
// shared by every entry point. On a cancellation or divergence error the
// partial Result is still returned alongside it.
func (e *traceRun) run() (Result, error) {
	var err error
	if e.tc.EventStepping {
		err = e.runEvents()
	} else {
		err = e.runFixed()
	}
	if e.res.Placed > 0 {
		e.res.MeanWaitSec = e.totalWait / float64(e.res.Placed)
	}
	if e.tc.Metrics != nil {
		// Serial post-run fold of the physics-layer counters in rack order
		// (the additive rack.* names accumulate across racks); the kernel
		// and scheduling counts were charged as they happened.
		for i := range e.loads {
			e.pl.Rack(i).MetricsInto(e.tc.Metrics)
		}
		e.res.Metrics = e.tc.Metrics
	}
	return e.res, err
}

// traceRun is the state of one trace execution, shared by the fixed-dt
// reference loop and the event-driven kernel — and by rack and plant runs
// — so every run takes scheduling decisions through literally the same
// code.
type traceRun struct {
	pl    plant
	pick  placer
	lone  bool // one-rack plant: its controller horizon is a decision wake
	names scopeNames
	jobs  []Job
	tc    TraceConfig
	dt    float64
	res   Result
	loads [][]units.Percent // dispatcher's committed demand, per rack per slot

	// rk and p are a rack run's rack and policy (checkpoints, cap
	// admission); nil in a plant run.
	rk *rack.Rack
	p  Policy
	// pendingDC tracks, per slot, the DC increments of placements admitted
	// earlier in the current step: the rack's measured draw lags behind by
	// one step (loads apply at the next Step), so cap admission must count
	// same-step placements or several jobs could jointly breach the cap.
	pendingDC []units.Watts

	pending   []Job
	running   []active
	totalWait float64
	nextJob   int
	start     float64
	steps     int
	gridSteps int // grid steps crossed so far

	// Run control: k0 is the first grid step to process (non-zero only on
	// resume), nextCkpt the next periodic-checkpoint instant in elapsed
	// seconds, hooks whether boundary() needs to run at all — one branch
	// per decision step when disabled.
	k0       int
	nextCkpt float64
	hooks    bool

	// backlogMacro, fixed at run start, allows the event kernel to grant
	// macro windows over a non-empty backlog (see LoadOnlyRefuser): the
	// placer's refusals are load-only and no wall cap is set.
	backlogMacro bool

	// Pinned fault edges in application order (k ascending, clears before
	// applies at a shared step), the cursor into them, and the sorted wake
	// steps the event kernel must not macro-step past.
	actions    []faultAction
	nextAction int
	faultSteps []int

	// Per-rack accounting, slot i written only by rack i's fan-out job:
	// kernel stats and the rack.StateSum after its last advance.
	kernel []RackKernelStats
	sums   []float64

	// Segment fan-out staging, written serially before the barrier, and
	// the job closures, built once per run.
	segK, segEnd    int
	segCause        pinReason
	stepFn, crossFn func(i int)

	// Metric handles for tc.Metrics, all nil (free no-ops) by default.
	m runMetrics
}

// runFixed is the fixed-dt reference path: every grid step processes
// events and advances every rack by one dt, bit-identical to the original
// runner.
func (e *traceRun) runFixed() error {
	for k := e.k0; k < e.steps; k++ {
		if e.hooks {
			if err := e.boundary(k); err != nil {
				return err
			}
		}
		if err := e.processStep(k); err != nil {
			return err
		}
		e.applyLoads()
		e.segment(k, 1, pinFixedDt, e.stepFn)
		if err := e.checkFinite(k + 1); err != nil {
			return err
		}
	}
	return nil
}

// processStep takes every scheduling decision of grid step k: completions
// free capacity, arrivals join the backlog, and the FIFO head places while
// the placer (and the wall cap) accepts.
func (e *traceRun) processStep(k int) error {
	elapsed := float64(k) * e.dt
	now := e.start + elapsed
	for i := range e.pendingDC {
		e.pendingDC[i] = 0
	}

	// Completions first: capacity freed this instant is placeable now.
	keep := e.running[:0]
	for _, a := range e.running {
		if a.end <= now {
			e.loads[a.rack][a.slot] -= a.demand
			e.res.Completed++
			e.m.completed.Inc()
			continue
		}
		keep = append(keep, a)
	}
	e.running = keep

	// Fault edges pinned to this step fire now, serially in application
	// order — after completions (a job ending exactly at a fault instant
	// completes), before the kill scan and any placement of the step.
	for e.nextAction < len(e.actions) && e.actions[e.nextAction].k <= k {
		a := e.actions[e.nextAction]
		var err error
		if a.apply {
			err = e.pl.ApplyFault(a.rack, a.ev)
		} else {
			err = e.pl.ClearFault(a.rack, a.ev)
		}
		if err != nil {
			return fmt.Errorf("%s: fault at step %d: %w", e.names.err, k, err)
		}
		e.nextAction++
	}

	// Kill scan: work running on a slot that is no longer healthy — a
	// fault edge above, or a natural thermal trip latched by the physics
	// since the last decision — is destroyed this instant. Requeued jobs
	// rejoin the backlog HEAD in kill order (arrival fairness: they were
	// placed before anything still queued), with their wait clock
	// restarted at the kill instant; under DropOnFault they are abandoned.
	var killed []Job
	keep = e.running[:0]
	for _, a := range e.running {
		if e.pl.Rack(a.rack).Health(a.slot) == rack.Healthy {
			keep = append(keep, a)
			continue
		}
		e.loads[a.rack][a.slot] -= a.demand
		e.res.Placed--
		if e.tc.DropOnFault {
			e.res.Lost++
			e.m.dropped.Inc()
			e.res.LostJobSeconds += a.job.Duration
		} else {
			e.res.Requeued++
			e.m.requeued.Inc()
			e.res.LostJobSeconds += elapsed - a.start
			j := a.job
			j.Arrival = elapsed
			killed = append(killed, j)
		}
	}
	e.running = keep
	if len(killed) > 0 {
		e.pending = append(killed, e.pending...)
	}

	// Arrivals join the FIFO backlog. A job is admitted at the tick of
	// the step interval [elapsed, elapsed+dt) containing its arrival —
	// the standard event-to-fixed-step collapse (anticipation < dt) —
	// so every job with Arrival < horizon is admitted; an
	// `Arrival <= elapsed` rule would silently drop arrivals in the
	// final step of the window.
	for e.nextJob < len(e.jobs) && e.jobs[e.nextJob].Arrival < elapsed+e.dt {
		e.pending = append(e.pending, e.jobs[e.nextJob])
		e.nextJob++
	}
	if len(e.pending) > e.res.MaxQueueLen {
		e.res.MaxQueueLen = len(e.pending)
	}
	e.m.backlogHW.SetMax(float64(len(e.pending)))

	// Place from the head while the placer accepts.
	for len(e.pending) > 0 {
		j := e.pending[0]
		ri, slot, err := e.pick.Pick(j, e.loads)
		if err != nil {
			return err
		}
		if ri < 0 {
			break
		}
		if err := e.checkPlacement(j, ri, slot); err != nil {
			return err
		}
		if !e.admitCap(j, slot) {
			// Deferral: the head blocks under the budget and is retried
			// next step, after completions free power.
			e.res.Deferrals++
			e.m.deferrals.Inc()
			break
		}
		e.place(j, ri, slot, now, elapsed)
		e.pending = e.pending[1:]
	}
	// The head blocked (or the queue drained). One FIFO backfill pass lets
	// later jobs place past a blocked head when enabled.
	if e.tc.Backfill && len(e.pending) > 1 {
		if err := e.backfill(now, elapsed); err != nil {
			return err
		}
	}
	return nil
}

// checkPlacement validates a placer's site — out-of-range or overloaded
// slots and unhealthy servers are hard policy bugs, for the head and
// backfill paths alike.
func (e *traceRun) checkPlacement(j Job, ri, slot int) error {
	if slot >= len(e.loads[ri]) || e.loads[ri][slot]+j.Demand > 100 {
		return fmt.Errorf("%s: policy %s placed job %d on invalid/overloaded server %d of rack %d",
			e.names.err, e.pick.PolicyName(ri), j.ID, slot, ri)
	}
	if h := e.pl.Rack(ri).Health(slot); h != rack.Healthy {
		return fmt.Errorf("%s: policy %s placed job %d on %v server %d of rack %d",
			e.names.err, e.pick.PolicyName(ri), j.ID, h, slot, ri)
	}
	return nil
}

// admitCap runs the wall-cap admission for placing j on slot, charging the
// job's DC increment into pendingDC when admitted so later same-step
// placements see it. A false return leaves pendingDC unchanged; with no
// cap configured (every plant run) every placement is admitted.
func (e *traceRun) admitCap(j Job, slot int) bool {
	if e.tc.WallCapW <= 0 {
		return true
	}
	load := e.loads[0][slot]
	mdc := MarginalDCPower(e.rk.Server(slot).Config().Power, load, j.Demand)
	if slot < len(e.tc.CapMarginal) && e.tc.CapMarginal[slot] != nil {
		// Conservative admission: charge the settled fan+leak cost up
		// front. Clamped at zero so the conservative estimate is never
		// below the fast one.
		if steady, err := SteadyFanLeakMarginal(e.tc.CapMarginal[slot], load, j.Demand); err == nil && steady > 0 {
			mdc += steady
		}
	}
	e.pendingDC[slot] += mdc
	if float64(e.rk.WallPowerWithAll(e.pendingDC)) > e.tc.WallCapW {
		e.pendingDC[slot] -= mdc
		return false
	}
	return true
}

// place commits job j to rack ri's slot at decision instant (now absolute,
// elapsed trace-relative): loads, the running set, the wait meter, the
// placement counters and the placer's commit notification.
func (e *traceRun) place(j Job, ri, slot int, now, elapsed float64) {
	e.loads[ri][slot] += j.Demand
	e.running = append(e.running, active{end: now + j.Duration, rack: ri, slot: slot, demand: j.Demand, job: j, start: elapsed})
	// Clamp at zero: admission rounds an arrival down to its step's
	// tick (anticipation < dt), which is not a queueing delay.
	if wait := elapsed - j.Arrival; wait > 0 {
		e.totalWait += wait
	}
	e.res.Placed++
	e.m.placements.Inc()
	e.pick.Committed(ri)
}

// backfill is the TraceConfig.Backfill pass: every job queued behind the
// blocked head is tried once, in arrival order, against the same
// validation and pendingDC cap admission the head failed; accepted jobs
// leave the queue and start immediately. Refused or cap-blocked candidates
// are skipped — without touching the head-only Deferrals meter — and the
// head keeps strict priority because backfilled placements only consume
// capacity (see the field's FIFO-fairness caveat).
func (e *traceRun) backfill(now, elapsed float64) error {
	for idx := 1; idx < len(e.pending); {
		j := e.pending[idx]
		ri, slot, err := e.pick.Pick(j, e.loads)
		if err != nil {
			return err
		}
		if ri < 0 {
			idx++
			continue
		}
		if err := e.checkPlacement(j, ri, slot); err != nil {
			return err
		}
		if !e.admitCap(j, slot) {
			idx++
			continue
		}
		e.place(j, ri, slot, now, elapsed)
		e.res.Backfills++
		e.m.backfills.Inc()
		e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
	}
	return nil
}

func (e *traceRun) applyLoads() {
	for ri, loads := range e.loads {
		rk := e.pl.Rack(ri)
		for i, u := range loads {
			rk.SetLoad(i, u)
		}
	}
}

// runEvents is the event-driven kernel. It visits exactly the grid steps
// at which the fixed-dt path could do something — a job arrival or
// completion, a blocked backlog retry, a fault edge, a telemetry sample
// and, for a lone rack, a controller wake-up — and crosses every gap in
// between as one segment in closed-form macro windows. Decision code,
// decision instants and decision inputs are shared with runFixed, so
// placements, deferrals and queue statistics are identical; only the
// physics between decisions is advanced in closed form.
func (e *traceRun) runEvents() error {
	sampleSteps := 0
	if e.tc.SampleEvery > 0 {
		sampleSteps = int(math.Round(e.tc.SampleEvery / e.dt))
		if sampleSteps < 1 {
			sampleSteps = 1
		}
	}
	for k := e.k0; k < e.steps; {
		if e.hooks {
			if err := e.boundary(k); err != nil {
				return err
			}
		}
		if err := e.processStep(k); err != nil {
			return err
		}
		e.applyLoads()
		now := e.start + float64(k)*e.dt
		if e.lone {
			// Controllers tick at the kernel's grid time. The fixed-dt path
			// ticks them at the rack's accumulated clock instead; the two
			// agree exactly whenever k·dt is exactly representable (every
			// integer dt, i.e. all shipped experiments) and to one ulp
			// otherwise — a hold-off or poll boundary landing inside that
			// ulp could shift a fan decision by one grid step between the
			// modes. Racks of a larger plant tick inside crossSegment.
			e.pl.Rack(0).TickControllers(now)
		}
		seg, reason := 1, pinBacklog
		// A non-empty backlog pins the kernel to fixed-dt — the head is
		// retried, against freshly evolved telemetry views, every step,
		// exactly like the reference path — unless the head's refusal is
		// provably load-only (LoadOnlyRefuser, no wall cap): loads and
		// health change only at wake events, so the refusal holds at every
		// skipped step and the kernel macro-steps completion-to-completion.
		if len(e.pending) == 0 || e.backlogMacro {
			seg, reason = e.bound(k, now, sampleSteps)
		}
		e.segment(k, seg, reason, e.crossFn)
		k += seg
		if err := e.checkFinite(k); err != nil {
			return err
		}
	}
	return nil
}

// segment crosses grid steps [k, k+steps), cross(i) advancing rack i.
func (e *traceRun) segment(k, steps int, cause pinReason, cross func(i int)) {
	e.segK, e.segEnd, e.segCause = k, k+steps, cause
	e.pl.Segment(e.dt, steps, cross)
	e.res.RackSteps++
	e.gridSteps += steps
	e.m.segments.Inc()
	e.m.gridSteps.Add(int64(steps))
}

// stepRack is the fixed-dt fan-out job: rack i takes one dt step.
func (e *traceRun) stepRack(i int) {
	rk := e.pl.Rack(i)
	rk.Step(e.dt)
	e.chunk(i, 1, pinFixedDt)
	e.sums[i] = rk.StateSum()
}

// crossSegment is the event kernel's fan-out job: rack i crosses the
// segment. A lone rack's controllers already ticked and bounded it, so it
// crosses in one window. A rack of a larger plant ticks its controllers at
// each visited step and lets its quiet horizon bound each chunk — a quiet
// rack crosses in a few macro windows while a pinned rack single-steps.
func (e *traceRun) crossSegment(i int) {
	rk := e.pl.Rack(i)
	for kk := e.segK; kk < e.segEnd; {
		// The segment boundary is this chunk's default bound; the rack's
		// own horizon can only shorten it. On ties the segment cause wins —
		// the same earlier-check-wins precedence as bound().
		w, cause := e.segEnd-kk, e.segCause
		if !e.lone {
			now := e.start + float64(kk)*e.dt
			rk.TickControllers(now)
			if kq, qc, ok := e.quietBound(rk, now); ok {
				if kq <= kk {
					kq = kk + 1
				}
				if kq-kk < w {
					w, cause = kq-kk, qc
				}
			}
		}
		rk.Advance(e.dt, w)
		e.chunk(i, w, cause)
		kk += w
	}
	e.sums[i] = rk.StateSum()
}

// chunk charges rack i one advance spanning w grid steps, pinned by
// `cause` when it is a single step. The obs handles are atomic and
// commutative, so fan-out jobs charge them concurrently.
func (e *traceRun) chunk(i, w int, cause pinReason) {
	st := &e.kernel[i]
	st.Advances++
	e.m.advances.Inc()
	e.m.winLen.Observe(float64(w))
	if w > 1 {
		st.MacroWindows++
		e.m.macroWins.Inc()
	} else {
		st.Pins[cause]++
		e.m.pins[cause].Inc()
	}
}

// bound is the event bound: the segment length from step k — up to,
// exclusive, the next grid step at which any decision can happen — plus
// the pin reason charged when that length is a single step. The reason is
// the bound that strictly lowered `next` last; on ties the earlier check
// wins, so the attribution precedence is horizon-end, arrival, fault-edge,
// completion, controller horizon (lone rack only: a larger plant's racks
// bound their own chunks in crossSegment), sample grid — deterministic for
// every worker count because every bound is computed from serial state.
func (e *traceRun) bound(k int, now float64, sampleSteps int) (int, pinReason) {
	// Fault runs pin to single steps while any live server sits inside the
	// trip-guard band: a natural trip latching mid-window would defer its
	// job kills to the window's end, diverging from the fixed-dt reference
	// that observes the trip on its exact step. A backlog-crossing window
	// (LoadOnlyRefuser) takes the same pin even on fault-free runs — a
	// natural trip un-healths a slot, which is exactly the state a
	// load-only refusal is conditioned on — while the empty-backlog path
	// keeps the fault-runs-only condition.
	if len(e.actions) > 0 || len(e.pending) > 0 {
		for i := range e.loads {
			if e.pl.Rack(i).TripRisk() {
				return 1, pinTripGuard
			}
		}
	}
	next, cause := e.steps, pinHorizonEnd
	if e.nextJob < len(e.jobs) {
		if ka := e.arrivalStep(e.jobs[e.nextJob].Arrival); ka < next {
			next, cause = ka, pinArrival
		}
	}
	// Fault edges are wake events: the kernel must take the decision step
	// at exactly the pinned inject/clear instants. faultSteps is sorted, so
	// the first entry past k is the nearest.
	for _, kf := range e.faultSteps {
		if kf > k {
			if kf < next {
				next, cause = kf, pinFaultEdge
			}
			break
		}
	}
	for _, a := range e.running {
		if kc := e.stepAtOrAfter(a.end); kc < next {
			next, cause = kc, pinCompletion
		}
	}
	if e.lone {
		rk := e.pl.Rack(0)
		if kq, qc, ok := e.quietBound(rk, now); ok && kq < next {
			next, cause = kq, qc
		}
	}
	if sampleSteps > 0 {
		if ks := (k/sampleSteps + 1) * sampleSteps; ks < next {
			next, cause = ks, pinSample
		}
	}
	if next <= k {
		next = k + 1
	}
	return next - k, cause
}

// quietBound returns the grid step at which rack rk's controller horizon
// from now expires and the pin reason it charges; ok is false while every
// controller promises quiet forever.
func (e *traceRun) quietBound(rk *rack.Rack, now float64) (k int, cause pinReason, ok bool) {
	q, qc := rk.QuietHorizonCause(now, e.dt)
	switch {
	case math.IsInf(q, 1):
		return 0, 0, false
	case qc == rack.QuietNoPromiser:
		cause = pinNoPromise
	case rk.FansUnsettled():
		cause = pinFanSlew
	default:
		cause = pinController
	}
	return e.stepAtOrAfter(q), cause, true
}

// arrivalStep returns the grid step at which the fixed-dt loop admits an
// arrival at time a: the smallest k satisfying the admission predicate.
// The candidate from the division is corrected against the decision
// loop's own float expression — fl(fl(k·dt)+dt), NOT fl((k+1)·dt), which
// can round differently — so the two paths can never disagree on the
// admitting step.
func (e *traceRun) arrivalStep(a float64) int {
	admits := func(k int) bool { return a < float64(k)*e.dt+e.dt }
	k := int(a / e.dt)
	if k < 0 {
		k = 0
	}
	for !admits(k) {
		k++
	}
	for k > 0 && admits(k-1) {
		k--
	}
	return k
}

// buildFaultActions validates the per-rack schedules and pins every event
// to its integer grid steps: the apply edge at the first step with
// k·dt ≥ At, the clear edge (for windowed events) at the first step with
// k·dt ≥ Clear. Edges landing past the horizon are dropped — a fault
// injecting too late never happens; a clear past the horizon leaves the
// fault active to the end. An apply and its clear pinning to the same step
// collapse to nothing (a zero-step fault window has no observable effect
// at any decision instant). The surviving edges are ordered by step,
// clears before applies at a shared step, rack order then declaration
// order as the final tie-breaks.
func (e *traceRun) buildFaultActions(faults []*fault.Schedule) error {
	for ri, sch := range faults {
		if sch.Empty() {
			continue
		}
		rk := e.pl.Rack(ri)
		if err := sch.Validate(rk.NumServers(), rk.Server(0).Fans().NumFans()); err != nil {
			return fmt.Errorf("%s: fault schedule for rack %d: %w", e.names.err, ri, err)
		}
		for _, ev := range sch.Events {
			ka := e.relStepAtOrAfter(ev.At)
			if ka >= e.steps {
				continue
			}
			if ev.Windowed() {
				kc := e.relStepAtOrAfter(ev.Clear)
				if kc == ka {
					continue
				}
				e.actions = append(e.actions, faultAction{k: ka, rack: ri, apply: true, ev: ev})
				if kc < e.steps {
					e.actions = append(e.actions, faultAction{k: kc, rack: ri, apply: false, ev: ev})
				}
				continue
			}
			e.actions = append(e.actions, faultAction{k: ka, rack: ri, apply: true, ev: ev})
		}
	}
	sort.SliceStable(e.actions, func(a, b int) bool {
		if e.actions[a].k != e.actions[b].k {
			return e.actions[a].k < e.actions[b].k
		}
		return !e.actions[a].apply && e.actions[b].apply
	})
	for _, a := range e.actions {
		e.faultSteps = append(e.faultSteps, a.k)
	}
	return nil
}

// relStepAtOrAfter returns the smallest grid step k with k·dt ≥ t for a
// trace-relative time t — the pinning rule for fault inject/clear edges.
// The correction loops evaluate the same float expression processStep's
// elapsed uses, so both stepping modes agree on the step.
func (e *traceRun) relStepAtOrAfter(t float64) int {
	k := int(t / e.dt)
	if k < 0 {
		k = 0
	}
	for float64(k)*e.dt < t {
		k++
	}
	for k > 0 && float64(k-1)*e.dt >= t {
		k--
	}
	return k
}

// stepAtOrAfter returns the smallest grid step k with start + k·dt ≥ t —
// the step at which the fixed-dt loop first sees `a.end <= now` for a
// completion at t, and the wake step for a controller horizon at t. The
// correction loops evaluate the identical float expression the decision
// code uses.
func (e *traceRun) stepAtOrAfter(t float64) int {
	k := int((t - e.start) / e.dt)
	if k < 0 {
		k = 0
	}
	for e.start+float64(k)*e.dt < t {
		k++
	}
	for k > 0 && e.start+float64(k-1)*e.dt >= t {
		k--
	}
	return k
}

// Settle advances the rack with no offered load for `duration` seconds —
// the idle stabilization window experiments run before their measured
// trace: a job-free trace run on the chosen kernel. With event stepping
// the whole window collapses into a handful of controller-horizon macro
// windows.
func Settle(r *rack.Rack, dt, duration float64, eventStepping bool) error {
	return settle(rackPlant{r}, dt, duration, eventStepping, rackScope)
}

func settle(pl plant, dt, duration float64, eventStepping bool, names scopeNames) error {
	if duration <= 0 {
		return nil
	}
	// No job ever reaches the placer; the round-robin only fills the slot.
	e, err := newRun(pl, &policyPlacer{p: NewRoundRobin()}, nil,
		TraceConfig{Dt: dt, Horizon: duration, EventStepping: eventStepping}, nil, names)
	if err != nil {
		return err
	}
	_, err = e.run()
	return err
}
