package sched

import "repro/internal/obs"

// pinReason labels why a rack advanced exactly one grid step instead of
// a macro window — the one pin taxonomy of every trace run, rack and room
// alike. Exactly one reason is charged per single-step advance, at the
// moment the kernel declines the window, so the per-reason counts always
// sum to (total rack advances − macro windows) by construction, per rack
// and plant-wide, in both stepping modes.
type pinReason int

const (
	// pinFixedDt: the fixed-dt reference kernel — every step is pinned by
	// mode, keeping the sum identity meaningful without event stepping.
	pinFixedDt pinReason = iota
	// pinBacklog: non-empty backlog; the FIFO head retries every step.
	pinBacklog
	// pinTripGuard: a fault run (or a backlog-crossing window) with some
	// live server inside the trip-guard band — trips must latch on their
	// exact step.
	pinTripGuard
	// pinArrival: the next job arrival lands on the very next step.
	pinArrival
	// pinCompletion: a running job completes at the next step.
	pinCompletion
	// pinFaultEdge: a pinned fault inject/clear fires at the next step.
	pinFaultEdge
	// pinController: a fan controller's quiet-horizon promise expires at
	// the next step (holdoff or poll boundary), fans settled. In a plant of
	// several racks it is charged by the rack's own chunk loop, not the
	// global segment.
	pinController
	// pinFanSlew: as pinController, but some powered slot's fans are still
	// slewing — the window is held shut while conductances move.
	pinFanSlew
	// pinNoPromise: some controller implements no quiet horizon
	// (control.HorizonPromiser), collapsing every window to one step.
	pinNoPromise
	// pinSample: the TraceConfig.SampleEvery telemetry grid.
	pinSample
	// pinHorizonEnd: the trace window itself ends at the next step.
	pinHorizonEnd
	pinReasons // count
)

// pinNames maps reasons to the metric suffixes under a scope's pin prefix,
// "kernel.pin." or "room.pin." (the README's pin-reason taxonomy table
// mirrors these).
var pinNames = [pinReasons]string{
	pinFixedDt:    "fixed-dt",
	pinBacklog:    "backlog",
	pinTripGuard:  "trip-guard",
	pinArrival:    "arrival",
	pinCompletion: "completion",
	pinFaultEdge:  "fault-edge",
	pinController: "controller",
	pinFanSlew:    "fan-slew",
	pinNoPromise:  "no-promise",
	pinSample:     "sample",
	pinHorizonEnd: "horizon-end",
}

// PinReasonNames returns the metric suffixes of the pin-reason taxonomy,
// in attribution-priority order; "kernel.pin." + name (rack runs) or
// "room.pin." + name (plant runs) is the counter each appears under, and
// RackKernelStats.Pins is indexed the same way. Exported for evalctl's
// breakdown table and the identity tests.
func PinReasonNames() []string {
	out := make([]string, pinReasons)
	copy(out, pinNames[:])
	return out
}

// windowLenBounds are the window.len histogram buckets: powers of two up
// to 16384 steps (a 1 s grid's 4.5-hour window), +Inf implicit.
func windowLenBounds() []float64 { return obs.ExpBuckets(1, 2, 15) }

// scopeNames is one entry point's vocabulary: its error prefix and the
// prefixes its counters register under — kernel.* and sched.* for rack
// runs, room.* for both in plant runs. A counter a scope never had stays
// unregistered, so each scope dumps exactly the names it always has.
type scopeNames struct {
	err, kernel, sched string
	advances           string // per-rack advance counter
	segments           string // global segment counter; "" for a rack, whose segments are its advances
	capped             bool   // registers the deferral and backfill counters (rack runs only)
}

var (
	rackScope = scopeNames{err: "sched", kernel: "kernel.", sched: "sched.", advances: "kernel.steps.total", capped: true}
	roomScope = scopeNames{err: "room", kernel: "room.", sched: "room.", advances: "room.rack.steps.total", segments: "room.segments"}
)

// runMetrics carries one trace run's metric handles, fetched once at run
// start so the per-step hot path never touches the registry's lock. With
// no registry attached every handle is nil and every call below is a
// nil-receiver no-op — the zero-cost default the golden tables pin.
type runMetrics struct {
	segments  *obs.Counter
	gridSteps *obs.Counter
	advances  *obs.Counter
	macroWins *obs.Counter
	winLen    *obs.Histogram
	pins      [pinReasons]*obs.Counter

	submitted  *obs.Counter
	placements *obs.Counter // placement events (a requeued job counts again)
	backfills  *obs.Counter // placements past a blocked head (subset of placements)
	deferrals  *obs.Counter
	completed  *obs.Counter
	requeued   *obs.Counter
	dropped    *obs.Counter
	backlogHW  *obs.Gauge
}

func newRunMetrics(reg *obs.Registry, n scopeNames) runMetrics {
	if reg == nil {
		// All-nil handles. Returning before the name concatenations keeps
		// the uninstrumented run's allocation profile untouched.
		return runMetrics{}
	}
	m := runMetrics{
		gridSteps:  reg.Counter(n.kernel + "grid.steps"),
		advances:   reg.Counter(n.advances),
		macroWins:  reg.Counter(n.kernel + "windows.macro"),
		winLen:     reg.Histogram(n.kernel+"window.len", windowLenBounds()),
		submitted:  reg.Counter(n.sched + "jobs.submitted"),
		placements: reg.Counter(n.sched + "placements"),
		completed:  reg.Counter(n.sched + "jobs.completed"),
		requeued:   reg.Counter(n.sched + "kills.requeued"),
		dropped:    reg.Counter(n.sched + "kills.dropped"),
		backlogHW:  reg.Gauge(n.sched + "backlog.highwater"),
	}
	if n.segments != "" {
		m.segments = reg.Counter(n.segments)
	}
	if n.capped {
		m.deferrals = reg.Counter(n.sched + "deferrals")
		m.backfills = reg.Counter(n.sched + "backfills")
	}
	for i := range m.pins {
		m.pins[i] = reg.Counter(n.kernel + "pin." + pinNames[i])
	}
	return m
}
