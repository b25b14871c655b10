// Package sched puts a job dispatcher on top of internal/rack: jobs with
// an arrival time, a duration and a CPU demand are placed onto servers by
// a pluggable placement policy, and the rack physics decides what the
// placement costs in energy, temperature and wall power.
//
// The paper's server-level result — leakage- and fan-aware control beats
// reactive and static policies — only pays off at scale when the
// dispatcher also knows which machine is coolest and cheapest to heat up.
// The six shipped policies span that design space:
//
//   - round-robin and least-utilized: thermally blind baselines;
//   - coolest-first: the reactive thermal heuristic;
//   - leakage-aware: reuses the paper's own machinery (internal/lut over
//     server.SteadyTemp) to place each job where the predicted marginal
//     fan+leakage power is lowest;
//   - cap-aware: the delivery-chain refinement — the same marginal cost
//     lifted through each slot's PSU efficiency curve, so jobs go where
//     the predicted marginal wall (AC) power is lowest;
//   - pue-aware: the facility-scope refinement — cost tables rebuilt at
//     the ambients the CRAC setpoint actually supplies (a facility-blind
//     table goes stale when the operator moves the cold aisle), and the
//     wall marginal amplified by the marginal CRAC/chiller power that
//     removes it as heat (internal/cooling).
//
// # Determinism contract
//
// Scheduling decisions run serially on the dispatcher goroutine; only the
// rack step underneath fans out (under the repository-wide "job i writes
// only slot i; reductions serial in index order" contract documented in
// internal/par). Policies must be deterministic, breaking ties by the
// lowest server index; RunTrace places strictly FIFO, so the queue head
// blocks until it fits. Results are therefore byte-identical for any
// worker count.
//
// # Wall-power capping
//
// TraceConfig.WallCapW enforces a rack-level wall budget: before charging
// a placement, the runner predicts the post-placement wall draw —
// rack.WallPowerWithAll over the utilization-driven DC increments of the
// candidate job and every placement already admitted in the same step —
// and defers the head — one deferral per step, retried after completions
// free power — whenever the prediction strictly exceeds the cap. A cap
// below the rack's idle draw therefore starves politely: nothing places,
// the queue holds, and the run still terminates at its horizon.
//
// The fast admission estimate counts only the utilization-driven DC
// increment, so fan and leakage transients settling after admission can
// still push the wall past the cap. TraceConfig.CapMarginal supplies
// per-slot steady-state cost tables and switches admission to the
// conservative estimate — the settled fan+leak marginal charged up front,
// clamped at zero — which by construction defers no later (and possibly
// earlier) than the fast one.
//
// # Event-driven macro-stepping
//
// TraceConfig.EventStepping replaces the fixed-dt grind with an
// event-driven kernel. The event taxonomy: job arrivals, job completions,
// backlog retries (a blocked FIFO head is re-attempted every grid step,
// against freshly evolved telemetry), controller wake-ups (the
// control.HorizonPromiser contract: hold-off expiries and poll outcomes
// bound when a fan decision can next happen), and optional fixed-cadence
// telemetry samples (TraceConfig.SampleEvery). The kernel visits exactly
// the grid steps at which the fixed-dt loop could act — decisions run
// through literally the same code at the same instants, so placements,
// deferral counts and queue statistics are identical — and advances the
// rack across each quiet gap in one closed-form macro window
// (rack.Advance over server.MacroWindow over each server's kept thermal
// anchor, thermal.Network.AdvanceAnchored).
// Energies agree with the fixed-dt reference to ≤1e-6 relative (the
// leakage-linearization drift cap, server.Config.MacroDriftTolC, is the
// knob), and wall-clock scales with the number of events instead of
// horizon/dt — ~27× fewer rack advances on the default Poisson trace.
//
// Fixed-dt remains mandatory — the kernel pins itself to single-step
// windows — while any fan controller cannot promise a quiet horizon
// (control.HorizonPromiser), while fans are slewing, or near the
// thermal-trip threshold. A non-empty backlog pins the kernel too, with
// one carve-out: when the policy declares its refusals load-only
// (LoadOnlyRefuser — refusing depends only on what placements would
// observe, and placements only change at arrivals and completions) and no
// wall cap is set (cap admission watches evolving fan/leak transients),
// the head retry is provably futile between events and the kernel
// macro-steps completion-to-completion over the blocked head. Round-robin
// and least-utilized opt in; the thermally-informed policies stay
// conservative and keep the pin. Reactive temperature-thresholding
// controllers are no longer an automatic pin either: BangBang promises
// its own decision cadence (ticks strictly before the next due instant
// are non-mutating no-ops), and its control.BandPromiser band lets the
// kernel extend that promise across every future decision instant whose
// predicted observation provably stays inside [TLow, THigh]
// (server.BandDecisionHorizon). EventStepping=false (the default) is the
// bit-exact reference path.
//
// # One kernel, two scopes
//
// The trace kernel drives a plant — racks behind one barrier, advanced a
// segment at a time by a per-rack fan-out job — and places through one
// hook. RunTraceCfg runs a bare rack as a one-rack plant with its Policy
// as the hook, plus the rack-scope extras: wall-cap admission, backfill
// and checkpoint/resume. RunPlant runs internal/room's Room with the
// room's chooser loop as the hook and room.* counter names. The decision
// order, the event bound, fault pinning, the divergence guard and the pin
// taxonomy exist once.
//
// # FIFO backfill
//
// TraceConfig.Backfill relaxes strict FIFO when the queue head blocks:
// the remaining queued jobs are tried once each, in arrival order,
// against the same invalid/overload/health checks and the same pendingDC
// cap admission the head failed, and placed where accepted
// (Result.Backfills counts them; sched.backfills mirrors it). The head
// keeps strict priority — backfilled placements only consume capacity,
// which can never un-refuse the head, because refusal is monotone in load
// for every shipped policy — but arrival fairness weakens to
// head-priority-only: under sustained overload a small job behind a large
// blocked head may run first indefinitely often. Cap-blocked backfill
// candidates are skipped without charging a Deferral (that meter stays
// head-only). Backfill decisions happen at the same decision steps as
// head retries, so the load-only macro carve-out above applies unchanged
// and both kernels agree job for job.
//
// # Faults and graceful degradation
//
// TraceConfig.Faults attaches a deterministic internal/fault schedule.
// Every event edge (inject, and the clear of a windowed event) is pinned
// up front to the first grid step at or after its time — the same
// grid-arithmetic rule in both stepping modes, so fault runs stay
// byte-identical between fixed-dt and the event kernel and across worker
// counts. Within a step the order is fixed: completions, then fault edges
// (clears before applies when they share a step), then the kill scan, then
// arrivals and placement — a job ending exactly at a fault instant
// completes, and an apply+clear pair collapsing onto one step is dropped
// as a no-op.
//
// The kill scan removes every running job whose slot is no longer
// rack.Healthy: by default the job rejoins the backlog HEAD (ahead of
// waiting arrivals — it has the oldest claim), restarts from scratch with
// its wait clock reset, and its destroyed progress is charged to
// Result.LostJobSeconds; TraceConfig.DropOnFault abandons it instead,
// charging its full duration. Policies see slot health in ServerView and
// must not place on unhealthy slots — the runner enforces this with a hard
// error. FIFO head-blocking is unchanged, so degraded runs remain
// starvation-free: a requeued head blocks until some healthy slot fits it,
// and the run always terminates at its horizon.
//
// Under event stepping, fault edges are wake events bounding every quiet
// window, windowed faults pin their targets to fixed-dt for the window's
// duration, and the kernel degrades to single-step windows while any live
// server sits inside the trip-guard band (rack.TripRisk), so a natural
// trip — and the kills it implies — is observed on the step it latches.
// One caveat mirrors the controller PollPeriod contract: a natural trip
// latching strictly inside a granted macro window (possible only when no
// fault schedule is attached) defers its kill scan to the window's end.
package sched
