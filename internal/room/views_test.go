package room

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/lut"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/units"
)

// recircPUEPolicy builds the thermally aware recirc-pue pairing: the
// recirculation-aware rack chooser over per-slot cost tables, PUE-aware
// slot policies underneath.
func recircPUEPolicy(t testing.TB, rm *Room, fac cooling.Facility) *Policy {
	t.Helper()
	perRack := make([][]*lut.Table, rm.NumRacks())
	slots := make([]sched.Policy, rm.NumRacks())
	for r := range perRack {
		rk := rm.Rack(r)
		tables := make([]*lut.Table, rk.NumServers())
		models := make([]power.ServerModel, rk.NumServers())
		for i := range tables {
			tables[i] = syntheticTable()
			models[i] = rk.Server(i).Config().Power
		}
		perRack[r] = tables
		pa, err := sched.NewPUEAwareFromTables(tables, models, nil, fac)
		if err != nil {
			t.Fatal(err)
		}
		slots[r] = pa
	}
	ch, err := NewRecircAware(perRack, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy(ch, slots)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// diffViews describes the first difference between kept and fresh views,
// or returns "" when they are equal.
func diffViews(kept, fresh []RackView) string {
	if len(kept) != len(fresh) {
		return fmt.Sprintf("%d kept views, %d fresh", len(kept), len(fresh))
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], fresh[i]) {
			k, f := kept[i], fresh[i]
			k.Slots, f.Slots = nil, nil
			for s := range kept[i].Slots {
				if s < len(fresh[i].Slots) && kept[i].Slots[s] != fresh[i].Slots[s] {
					return fmt.Sprintf("rack %d slot %d: kept %+v, fresh %+v", i, s, kept[i].Slots[s], fresh[i].Slots[s])
				}
			}
			return fmt.Sprintf("rack %d: kept %+v, fresh %+v", i, k, f)
		}
	}
	return ""
}

// TestKeptViewsMatchFresh is the view-reuse property: the rack views the
// placer keeps across placements equal a full rebuild at every Pick — over
// a recirculation-coupled room trace with a fault schedule under the
// recirc-pue pairing, on both kernels, and when the room is driven
// directly (a fault edge, a load change or a step between two picks).
func TestKeptViewsMatchFresh(t *testing.T) {
	const racks, servers = 4, 4
	jobs := randomJobs(t, 11, 900, racks*servers, 0.7)
	faults := []*fault.Schedule{
		{Events: []fault.Event{
			{Kind: fault.PSUFail, Server: 1, At: 150, Clear: 420},
			{Kind: fault.CRACOutage, At: 300, Clear: 360},
		}},
		{Events: []fault.Event{{Kind: fault.ServerTrip, Server: 0, At: 200, Clear: 260}}},
		{Events: []fault.Event{{Kind: fault.AmbientExcursion, Server: -1, Severity: 4, At: 100, Clear: 500}}},
		{Events: []fault.Event{{Kind: fault.FanFail, Server: 2, Fan: 0, At: 50}}},
	}
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	for _, event := range []bool{false, true} {
		t.Run(fmt.Sprintf("trace/event=%v", event), func(t *testing.T) {
			rm := testRoom(t, racks, servers, 2, NeighborMatrix(racks), &fac, true)
			picks, bad := 0, ""
			res, err := runTraceCheckingViews(rm, jobs, recircPUEPolicy(t, rm, fac), TraceConfig{
				Dt: 1, Horizon: 900, EventStepping: event, Faults: faults,
			}, func(kept, fresh []RackView) {
				picks++
				if d := diffViews(kept, fresh); d != "" && bad == "" {
					bad = fmt.Sprintf("pick %d: %s", picks, d)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if bad != "" {
				t.Fatal(bad)
			}
			if picks < len(jobs) || res.Placed == 0 || res.Requeued == 0 {
				t.Fatalf("trace too easy to show anything: %d picks, %d placed, %d requeued for %d jobs",
					picks, res.Placed, res.Requeued, len(jobs))
			}
		})
	}

	t.Run("direct", func(t *testing.T) {
		rm := testRoom(t, racks, servers, 1, NeighborMatrix(racks), &fac, true)
		driveLoads(rm, 30)
		p := newPlacer(rm, recircPUEPolicy(t, rm, fac))
		loads := make([][]units.Percent, racks)
		for r := range loads {
			loads[r] = make([]units.Percent, servers)
		}
		probe := func(when string) {
			t.Helper()
			p.refresh(loads)
			if d := diffViews(p.views, freshViews(rm, loads)); d != "" {
				t.Fatalf("%s: %s", when, d)
			}
		}
		probe("first pick")
		trip := fault.Event{Kind: fault.PSUFail, Server: 2, At: 0}
		if err := rm.ApplyFault(1, trip); err != nil {
			t.Fatal(err)
		}
		probe("after ApplyFault")
		if err := rm.ClearFault(1, trip); err != nil {
			t.Fatal(err)
		}
		probe("after ClearFault")
		loads[3][1] += 40
		probe("after a load change")
		rm.Step(1)
		probe("after a step")
	})
}
