package main

import (
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
)

// workload is one named benchmark input shape. Exactly one of rack and room
// is set; the eval structs are the shipped experiments' own configuration
// types, so the cells a workload assembles can be compared against the
// matching experiments rows (see bench_test.go).
type workload struct {
	name string
	rack *experiments.RackEval
	room *experiments.RoomEval
	// capped marks rack-saturated: its cells run under a wall budget of
	// experiments.AutoCapFraction × round-robin's uncapped peak wall draw —
	// the capped half of experiments.RackACComparison.
	capped bool
	// roomCells names the experiments.RoomPolicyLabels combos a room
	// workload runs.
	roomCells []string
}

// workloads returns the benchmark's workloads in BENCHMARK.json order.
func workloads() []*workload {
	quiet := experiments.DefaultRackEval()
	quiet.Horizon = 2 * 24 * 3600
	quiet.EventStepping = true
	quiet.Workers = 1

	sat := experiments.DefaultRackEval()
	sat.Horizon = 4 * 3600
	sat.Rate = 4 * sat.Rate
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	sat.PSU, sat.PDU = &psu, &pdu
	sat.EventStepping = true
	sat.Workers = 1

	rm := experiments.DefaultRoomEval()
	rm.Racks, rm.Servers = 16, 64
	rm.Rate = 2.56
	rm.EventStepping = true
	rm.Workers = 1

	return []*workload{
		{name: "rack-quiet", rack: &quiet},
		{name: "rack-saturated", rack: &sat, capped: true},
		{name: "room-1024", room: &rm, roomCells: []string{"rr", "recirc-pue"}},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputs is everything the benchmark generates from the seed. The program
// receives only these: the Poisson job trace, the base server
// configuration whose NoiseSeed every per-server sensor-noise seed derives
// from, and — for rack-saturated — the wall budget.
type inputs struct {
	base server.Config
	jobs []sched.Job
	capW float64
}

// genInputs builds the workload's inputs from the seed. rack-saturated's
// budget needs one uncapped round-robin run on the same trace; it is
// deterministic and not part of any timed phase.
func (w *workload) genInputs(seed int64) (inputs, error) {
	in := inputs{base: server.T3Config()}
	in.base.NoiseSeed = seed
	tcfg := loadgen.PoissonTraceConfig{Seed: seed}
	if w.rack != nil {
		tcfg.Horizon, tcfg.Rate, tcfg.MeanDuration, tcfg.Demands = w.rack.Horizon, w.rack.Rate, w.rack.MeanDuration, w.rack.Demands
	} else {
		tcfg.Horizon, tcfg.Rate, tcfg.MeanDuration, tcfg.Demands = w.room.Horizon, w.room.Rate, w.room.MeanDuration, w.room.Demands
	}
	specs, err := loadgen.PoissonTrace(tcfg)
	if err != nil {
		return inputs{}, err
	}
	in.jobs = sched.JobsFromSpecs(specs)
	if w.capped {
		// cells[0] is round-robin (experiments.RackPolicies order), built
		// uncapped because in.capW is still zero.
		sys, _, err := w.setup(in, nil, true)
		if err != nil {
			return inputs{}, err
		}
		out, err := sys.cells[0].run(in, true, nil)
		if err != nil {
			return inputs{}, fmt.Errorf("cap derivation: %w", err)
		}
		in.capW = experiments.AutoCapFraction * out.rack.Rack.PeakWallPowerW
	}
	return in, nil
}

// setupTimes is one setup's wall time, whole and split by the public
// calls it makes into each layer.
type setupTimes struct {
	total, lutBuild, rackNew, roomNew, settle, roomSettle time.Duration
}

// system is a workload's cells, settled with accounting reset and ready to
// serve the trace.
type system struct {
	cells []*cell
}

// cell is one settled system plus the policy it serves the trace under —
// one row of the matching experiments table.
type cell struct {
	label       string
	dt, horizon float64
	capW        float64
	rk          *rack.Rack
	pol         sched.Policy
	rm          *room.Room
	rpol        *room.Policy
}

// setup goes from inputs to settled cells: LUT tables, rack or room
// construction, policies, Settle and the accounting reset. event selects
// the kernel Settle (and later the run) uses; tr, when non-nil, wraps every
// policy, chooser and controller for the traced run.
func (w *workload) setup(in inputs, tr *tracer, event bool) (*system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	var sys *system
	var err error
	if w.rack != nil {
		sys, err = w.setupRack(in, tr, event, &st)
	} else {
		sys, err = w.setupRoom(in, tr, event, &st)
	}
	st.total = time.Since(t0)
	return sys, st, err
}

func buildTables(cfgs []server.Config, st *setupTimes) ([]*lut.Table, error) {
	bc := lut.DefaultBuild()
	bc.Workers = 1
	t0 := time.Now()
	tables, err := lut.DiskCache{}.BuildPerConfig(cfgs, bc)
	st.lutBuild += time.Since(t0)
	return tables, err
}

// rackConfig mirrors the experiments' rack assembly: one LUT fan
// controller per slot over that slot's table, the delivery chain (nil PSU
// and PDU for an ideal one), serial stepping.
func rackConfig(cfgs []server.Config, tables []*lut.Table, psu *power.PSUModel, pdu *power.PDUModel, tr *tracer) (rack.Config, error) {
	specs := make([]rack.ServerSpec, len(cfgs))
	for i, cfg := range cfgs {
		lc, err := control.NewLUT(tables[i], control.DefaultLUT())
		if err != nil {
			return rack.Config{}, err
		}
		specs[i] = rack.ServerSpec{
			Name:       fmt.Sprintf("srv%02d-amb%g", i, float64(cfg.Ambient)),
			Config:     cfg,
			Controller: tr.controller(lc),
		}
	}
	return rack.Config{Servers: specs, Workers: 1, PSU: psu, PDU: pdu}, nil
}

func (w *workload) setupRack(in inputs, tr *tracer, event bool, st *setupTimes) (*system, error) {
	ev := w.rack
	cfgs := experiments.RackServerConfigs(in.base, ev.Servers)
	tables, err := buildTables(cfgs, st)
	if err != nil {
		return nil, err
	}
	psus := make([]*power.PSUModel, len(cfgs))
	for i := range psus {
		psus[i] = ev.PSU
	}
	policies, err := experiments.RackPolicies(cfgs, tables, psus)
	if err != nil {
		return nil, err
	}
	sys := &system{}
	for _, p := range policies {
		rc, err := rackConfig(cfgs, tables, ev.PSU, ev.PDU, tr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rk, err := rack.New(rc)
		st.rackNew += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = sched.Settle(rk, ev.Dt, ev.Stabilize, event)
		st.settle += time.Since(t0)
		if err != nil {
			return nil, err
		}
		rk.ResetAccounting()
		sys.cells = append(sys.cells, &cell{label: p.Name(), dt: ev.Dt, horizon: ev.Horizon, capW: in.capW, rk: rk, pol: tr.policy(p)})
	}
	return sys, nil
}

// roomConfigs mirrors the experiments' room slot configurations: every
// rack repeats the rack gradient, with sensor-noise seeds distinct across
// the room.
func roomConfigs(base server.Config, ev *experiments.RoomEval) [][]server.Config {
	out := make([][]server.Config, ev.Racks)
	for r := range out {
		b := base
		b.NoiseSeed = base.NoiseSeed + int64(100000*(r+1))
		out[r] = experiments.RackServerConfigs(b, ev.Servers)
	}
	return out
}

func (w *workload) setupRoom(in inputs, tr *tracer, event bool, st *setupTimes) (*system, error) {
	ev := w.room
	cfgs := roomConfigs(in.base, ev)
	tables, err := buildTables(cfgs[0], st)
	if err != nil {
		return nil, err
	}
	sys := &system{}
	for _, label := range w.roomCells {
		pol, err := roomPolicy(label, cfgs[0], tables, ev, tr)
		if err != nil {
			return nil, err
		}
		specs := make([]room.RackSpec, ev.Racks)
		for r := range specs {
			rc, err := rackConfig(cfgs[r], tables, nil, nil, tr)
			if err != nil {
				return nil, err
			}
			specs[r] = room.RackSpec{Name: fmt.Sprintf("rack%02d", r), Config: rc}
		}
		fac := roomFacility()
		t0 := time.Now()
		rm, err := room.New(room.Config{Racks: specs, Workers: 1, Recirc: room.NeighborMatrix(ev.Racks), Facility: &fac})
		st.roomNew += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = room.Settle(rm, ev.Dt, ev.Stabilize, event)
		st.roomSettle += time.Since(t0)
		if err != nil {
			return nil, err
		}
		rm.ResetAccounting()
		sys.cells = append(sys.cells, &cell{label: label, dt: ev.Dt, horizon: ev.Horizon, rm: rm, rpol: pol})
	}
	return sys, nil
}

// roomFacility is the experiments' shared CRAC bank: the default
// CRAC/chiller pair at the reference supply setpoint.
func roomFacility() cooling.Facility {
	return cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
}

// roomPolicy builds one of the experiments' two-level policy combos.
func roomPolicy(label string, slotCfgs []server.Config, tables []*lut.Table, ev *experiments.RoomEval, tr *tracer) (*room.Policy, error) {
	slots := make([]sched.Policy, ev.Racks)
	switch label {
	case "rr":
		for r := range slots {
			slots[r] = tr.policy(sched.NewRoundRobin())
		}
		return room.NewPolicy(tr.chooser(room.NewRoundRobinRacks()), slots)
	case "recirc-pue":
		perRack := make([][]*lut.Table, ev.Racks)
		for r := range perRack {
			perRack[r] = tables
		}
		ch, err := room.NewRecircAware(perRack, 0)
		if err != nil {
			return nil, err
		}
		models := make([]power.ServerModel, len(slotCfgs))
		for i, cfg := range slotCfgs {
			models[i] = cfg.Power
		}
		fac := roomFacility()
		for r := range slots {
			pa, err := sched.NewPUEAwareFromTables(tables, models, nil, fac)
			if err != nil {
				return nil, err
			}
			slots[r] = tr.policy(pa)
		}
		return room.NewPolicy(tr.chooser(ch), slots)
	}
	return nil, fmt.Errorf("room cell %q is not part of the benchmark", label)
}

// outcome is one cell's result: the experiments row (Metrics stripped, so
// it is comparable across traced and untraced runs) plus what the output
// checks need beyond it.
type outcome struct {
	rack *experiments.RackPolicyResult
	room *experiments.RoomPolicyResult
	// endLoad is Σ slot loads left on the system at the horizon: the
	// demand of the jobs still running.
	endLoad float64
	reg     *obs.Registry
}

// run serves the trace on the settled cell. reg, when non-nil, is the obs
// registry the run instruments; the timed untraced run passes nil.
func (c *cell) run(in inputs, event bool, reg *obs.Registry) (outcome, error) {
	out := outcome{reg: reg}
	if c.rk != nil {
		res, err := sched.RunTraceCfg(c.rk, in.jobs, c.pol, sched.TraceConfig{
			Dt: c.dt, Horizon: c.horizon, WallCapW: c.capW, EventStepping: event, Metrics: reg,
		})
		if err != nil {
			return out, err
		}
		res.Metrics = nil // the registry rides in out.reg; rows must compare across runs
		out.rack = &experiments.RackPolicyResult{Policy: c.label, CapW: c.capW, Sched: res, Rack: c.rk.Telemetry()}
		for i := 0; i < c.rk.NumServers(); i++ {
			out.endLoad += float64(c.rk.Load(i))
		}
		return out, nil
	}
	res, err := room.RunTrace(c.rm, in.jobs, c.rpol, room.TraceConfig{
		Dt: c.dt, Horizon: c.horizon, EventStepping: event, Metrics: reg,
	})
	if err != nil {
		return out, err
	}
	res.Metrics = nil
	out.room = &experiments.RoomPolicyResult{Policy: c.label, Sched: res, Room: c.rm.Telemetry()}
	for r := 0; r < c.rm.NumRacks(); r++ {
		rk := c.rm.Rack(r)
		for i := 0; i < rk.NumServers(); i++ {
			out.endLoad += float64(rk.Load(i))
		}
	}
	return out, nil
}
