// Package room scales the simulator from one rack to a machine room: N
// rack.Rack instances stepped in lockstep behind a shared CRAC/chiller
// bank, thermally coupled through a heat-recirculation matrix, and fed by
// a room-level dispatcher that picks a rack before delegating the slot
// choice to that rack's sched.Policy.
//
// # Two-level determinism contract
//
// The room fans out over racks exactly the way a rack fans out over
// servers, one more level of the repo-wide contract:
//
//   - Fan-out job i writes only rack i's state. Rooms force every rack's
//     internal Workers to 1, so the inner per-server loop runs serially on
//     the job's goroutine — parallelism lives at exactly one level and the
//     goroutine count stays bounded by the room's Workers.
//   - Every cross-rack reduction — room energy integration, peak wall and
//     facility power, worst inlet/DIMM/CPU temperatures, PUE, and the
//     recirculation offsets themselves — runs serially in rack-index order
//     after the barrier.
//
// Together these make every room metric, telemetry dump and obs counter
// byte-identical for any Workers value, which TestRoomDeterminism pins
// under -race.
//
// # Heat recirculation and re-anchoring
//
// The row-major Matrix W couples exhausts to inlets: rack i's exhaust
// temperature rise ΔT_i (its wall draw times Config.ExhaustRiseCPerKW)
// raises rack j's inlet by W[i][j]·ΔT_i. Offsets are recomputed serially
// after every barrier — each step on the fixed-dt path, each segment
// boundary under event stepping — and applied as deltas through
// rack.AddAmbientOffset, composing with fault heat soaks. Within a macro
// window the offsets are held constant and re-anchored at the window
// boundary. The 1e-6 relative energy budget between the kernels
// (TestRoomEventMatchesFixed) holds only when both re-anchor on the same
// cadence — its coupled cases set TraceConfig.SampleEvery so they do.
// Without a shared cadence the coupling follows each kernel's own
// segmentation and the kernels drift apart: 1.4e-4 relative wall energy
// for evalctl -room -racks 16 -servers 64 -rate 2.56 -policy rr with and
// without -eventstep. A zero matrix applies no offset at all, leaving
// every rack bit-identical to independent stepping.
//
// Energy is conserved by construction: the shared facility removes exactly
// the heat the racks reject (Σ rack wall watts — the recirculated fraction
// redistributes heat between inlets; it does not create any), so the
// room's independently integrated heat meter equals the sum of the rack
// wall meters to float reordering (≤1e-9 relative, TestRoomHeatConservation).
//
// # One trace kernel
//
// RunTrace runs on internal/sched's trace kernel (sched.RunPlant): the
// Room is the plant (Segment fans the per-rack job out, then runs the
// barrier above) and the two-level chooser loop is the placement hook, so
// decisions, step arithmetic, fault pinning, the divergence guard and the
// pin taxonomy are the rack runner's own. In event mode each rack's
// controller horizon bounds only its own chunks inside a global segment:
// a quiet rack crosses in macro windows while a pinned rack single-steps
// (Σ pins == advances − macro windows per rack, TestRoomPinIdentity). A
// one-rack room runs exactly like its rack under sched.RunTraceCfg
// (TestOneRackRoomMatchesRack).
//
// # Placement views are kept between placements
//
// The chooser ranks RackViews — per-rack aggregates plus every slot's
// sched.ServerView. The runner keeps them across placements and rebuilds
// rack i's view only when
//
//   - the room moved since the views were taken: Segment (every fixed-dt
//     step and every event segment), ApplyFault, ClearFault and Restore
//     advance a room generation counter, which invalidates every view; or
//   - the dispatcher's loads on rack i differ from the loads its view
//     holds (a placement, completion or kill on that rack).
//
// Between two placements of one step only the receiving rack's view is
// rebuilt. Blocked is cleared on every placement attempt. Views are
// read-only to choosers and slot policies. The kept views equal a full
// rebuild at every placement (TestKeptViewsMatchFresh).
package room
