// Package server wires the CPU, memory, fan and thermal substrates into a
// simulated enterprise server that stands in for the paper's SPARC T3-2
// class machine. It exposes exactly the signals the paper's setup exposes:
// four CPU die temperature sensors (two per die), 32 DIMM temperatures,
// per-core voltage/current, whole-system power, and separately metered fan
// power.
//
// # Thermal-trip latching
//
// When the hottest die touches Config.CriticalTemp (paper: 90 °C), the
// service processor engages thermal protection: fans are forced to maximum
// and the trip flag LATCHES. Tripped() keeps reporting true for the rest
// of the run even after the machine cools back below the threshold — like
// a real machine's fault log, a trip is an event record, not a state
// readout. Nothing in Step, MacroWindow or the controllers ever clears it;
// the only reset is the operator's explicit ResetTrip (the clear leg of a
// fault.ServerTrip event uses it). Rack health (rack.Health) and the trace
// scheduler's kill/requeue logic key off this latch, so a server that
// tripped once stays out of placement until an explicit reset arrives.
//
// # Fault surfaces
//
// The fault-injection subsystem (internal/fault) drives a server through
// four orthogonal surfaces, all safe to call between steps only (never
// concurrently with Step):
//
//   - SetPowered(false) takes the machine dark — zero draw, zero injected
//     heat, fans spun down, dies relaxing to the aisle ambient. A dark
//     machine cannot trip.
//   - ForceTrip / ResetTrip latch and clear the thermal trip explicitly.
//   - SetAmbientOffset shifts the inlet ambient from its construction-time
//     base (CRAC outages, aisle excursions).
//   - PinFixedDt counts active bounded fault windows; while positive,
//     macro-stepping is ineligible and the server integrates with plain
//     fixed-dt steps (the PR 5 event-kernel contract).
//
// Fan-level faults (stick, fail) live on the fans.Bank reached via Fans().
//
// # Readers sync the thermal inputs
//
// The thermal network's inputs — inlet boundary temperature, sink
// conductances and injected die powers — are derived state: a pure
// function of the ambient, utilization, fan speed, DVFS scales, power
// state and die temperatures. Every reader refreshes them from those
// sources before using them: Step, a macro-window re-anchor,
// BandDecisionHorizon, SetPowered and SetState each sync first. Mutators
// of the sources therefore only write the source — SetAmbientOffset
// stores the new ambient and nothing else, which is what lets a room
// re-apply recirculation offsets to every server at every barrier for one
// store each. A new reader of the network's inputs must sync first too.
package server
