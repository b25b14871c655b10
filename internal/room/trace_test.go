package room

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/units"
)

// TestHostileTraceConfigs: non-finite or non-positive steps and spans, a
// grid-step count past 2^53, and negative or non-finite sample cadences
// are rejected with an error by both trace entry points — rack and room —
// on both kernels, instead of running zero steps or pinning every step.
func TestHostileTraceConfigs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	jobs := []sched.Job{{ID: 0, Arrival: 0, Duration: 10, Demand: 20}}
	for _, tc := range []struct {
		name                 string
		dt, horizon, sampleE float64
	}{
		{"dt-zero", 0, 100, 0},
		{"dt-negative", -1, 100, 0},
		{"dt-nan", nan, 100, 0},
		{"dt-inf", inf, 100, 0},
		{"horizon-zero", 1, 0, 0},
		{"horizon-nan", 1, nan, 0},
		{"horizon-inf", 1, inf, 0},
		{"steps-overflow", 1e-300, 1e300, 0},
		{"sample-negative", 1, 100, -5},
		{"sample-nan", 1, 100, nan},
		{"sample-inf", 1, 100, inf},
	} {
		for _, event := range []bool{false, true} {
			r, err := rack.New(testRackConfig(t, 2, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			_, err = sched.RunTraceCfg(r, jobs, sched.NewRoundRobin(), sched.TraceConfig{
				Dt: tc.dt, Horizon: tc.horizon, SampleEvery: tc.sampleE, EventStepping: event,
			})
			if err == nil {
				t.Errorf("%s event=%v: sched.RunTraceCfg accepted the config", tc.name, event)
			}
			rm := testRoom(t, 2, 2, 1, nil, nil, true)
			_, err = RunTrace(rm, jobs, rrPolicy(t, 2), TraceConfig{
				Dt: tc.dt, Horizon: tc.horizon, SampleEvery: tc.sampleE, EventStepping: event,
			})
			if err == nil {
				t.Errorf("%s event=%v: room.RunTrace accepted the config", tc.name, event)
			}
		}
	}
}

// TestRoomDivergenceGuard mirrors sched's TestDivergenceGuard at room
// scope: a rack whose physics goes NaN — through its ambient, or through a
// single DIMM, which the bank's cached max skips but its cached sum must
// not — stops the run with *sched.Diverged on both kernels. Room runs have
// no checkpoints, so the diagnostic Checkpoint stays zero.
func TestRoomDivergenceGuard(t *testing.T) {
	poisons := []struct {
		name   string
		poison func(t *testing.T, rm *Room)
	}{
		{"ambient", func(_ *testing.T, rm *Room) {
			rm.Rack(1).AddAmbientOffset(units.Celsius(math.NaN()))
		}},
		{"dimm", func(t *testing.T, rm *Room) {
			srv := rm.Rack(1).Server(1)
			st := srv.State()
			st.Mem.Temps[3] = math.NaN()
			if err := srv.SetState(st); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range poisons {
		name := p.name
		for _, event := range []bool{false, true} {
			rm := testRoom(t, 2, 2, 2, nil, nil, true)
			p.poison(t, rm)
			_, err := RunTrace(rm, nil, rrPolicy(t, 2), TraceConfig{Dt: 1, Horizon: 300, EventStepping: event})
			var d *sched.Diverged
			if !errors.As(err, &d) {
				t.Fatalf("%s event=%v: got %v, want *sched.Diverged", name, event, err)
			}
			if d.Step <= 0 || d.Step > 300 {
				t.Fatalf("%s event=%v: divergence at implausible step %d", name, event, d.Step)
			}
			if !reflect.DeepEqual(d.Checkpoint, sched.Checkpoint{}) {
				t.Fatalf("%s event=%v: room divergence carries a checkpoint", name, event)
			}
		}
	}
}

// TestOneRackRoomMatchesRack pins the kernel unification: a one-rack room
// with no recirculation and no facility is the same trace run as its rack
// driven by sched.RunTraceCfg — identical scheduling counts, rack
// telemetry and pin counts on both kernels, under a fault schedule, for
// any worker count.
func TestOneRackRoomMatchesRack(t *testing.T) {
	const servers, horizon = 4, 900.0
	jobs := randomJobs(t, 5, horizon, servers, 0.9)
	faults := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 1, Fan: 0, At: 100, Clear: 400},
		{Kind: fault.ServerTrip, Server: 2, At: 250, Clear: 500},
		{Kind: fault.AmbientExcursion, Server: -1, At: 600, Clear: 700, Severity: 3},
	}}
	type counts struct {
		Submitted, Completed, Placed, MaxQueueLen, Requeued, Lost int
		MeanWaitSec, LostJobSeconds                               float64
		Segments, GridSteps, Advances, MacroWindows               int
		Pins                                                      []int
	}
	for _, event := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			rc := testRackConfig(t, servers, 1, true)
			rc.Workers = workers
			r, err := rack.New(rc)
			if err != nil {
				t.Fatal(err)
			}
			rreg := obs.NewRegistry()
			rres, err := sched.RunTraceCfg(r, jobs, sched.NewRoundRobin(), sched.TraceConfig{
				Dt: 1, Horizon: horizon, EventStepping: event, SampleEvery: 60,
				Faults: faults, Metrics: rreg,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := counts{
				Submitted: rres.Submitted, Completed: rres.Completed, Placed: rres.Placed,
				MaxQueueLen: rres.MaxQueueLen, Requeued: rres.Requeued, Lost: rres.Lost,
				MeanWaitSec: rres.MeanWaitSec, LostJobSeconds: rres.LostJobSeconds,
				Segments:     rres.RackSteps,
				GridSteps:    int(rreg.Counter("kernel.grid.steps").Value()),
				Advances:     int(rreg.Counter("kernel.steps.total").Value()),
				MacroWindows: int(rreg.Counter("kernel.windows.macro").Value()),
			}
			for _, name := range sched.PinReasonNames() {
				want.Pins = append(want.Pins, int(rreg.Counter("kernel.pin."+name).Value()))
			}

			rm := testRoom(t, 1, servers, workers, nil, nil, true)
			mreg := obs.NewRegistry()
			mres, err := RunTrace(rm, jobs, rrPolicy(t, 1), TraceConfig{
				Dt: 1, Horizon: horizon, EventStepping: event, SampleEvery: 60,
				Faults: []*fault.Schedule{faults}, Metrics: mreg,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := mres.Kernel[0]
			got := counts{
				Submitted: mres.Submitted, Completed: mres.Completed, Placed: mres.Placed,
				MaxQueueLen: mres.MaxQueueLen, Requeued: mres.Requeued, Lost: mres.Lost,
				MeanWaitSec: mres.MeanWaitSec, LostJobSeconds: mres.LostJobSeconds,
				Segments: mres.Segments, GridSteps: mres.GridSteps,
				Advances: st.Advances, MacroWindows: st.MacroWindows, Pins: st.Pins,
			}
			for i, name := range PinReasonNames() {
				if v := int(mreg.Counter("room.pin." + name).Value()); v != st.Pins[i] {
					t.Errorf("event=%v workers=%d: room.pin.%s = %d, Kernel[0] says %d", event, workers, name, v, st.Pins[i])
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("event=%v workers=%d: counts differ\nrack: %+v\nroom: %+v", event, workers, want, got)
			}
			if rt, mt := r.Telemetry(), rm.Rack(0).Telemetry(); !reflect.DeepEqual(rt, mt) {
				t.Errorf("event=%v workers=%d: rack telemetry differs\nrack: %+v\nroom: %+v", event, workers, rt, mt)
			}
			if want.Requeued == 0 || (event && want.MacroWindows == 0) {
				t.Errorf("event=%v workers=%d: degenerate case %+v", event, workers, want)
			}
		}
	}
}
