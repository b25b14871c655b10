package main

import (
	"bytes"
	"testing"

	"repro/internal/control"
	"repro/internal/experiments"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
)

const testSeed = 42

// runAll sets up the workload and serves the trace on every cell, each
// under its own registry when instrumented.
func runAll(t *testing.T, w *workload, in inputs, tr *tracer, instrumented bool) []outcome {
	t.Helper()
	sys, _, err := w.setup(in, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]outcome, len(sys.cells))
	for i, c := range sys.cells {
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		if outs[i], err = c.run(in, true, reg); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if err := checkOutcome(outs[i], in); err != nil {
			t.Errorf("%s: %v", c.label, err)
		}
	}
	return outs
}

func dump(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func testInputs(t *testing.T, name string) (*workload, inputs) {
	t.Helper()
	if name == "room-1024" && testing.Short() {
		t.Skip("1024-server room skipped in -short mode")
	}
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.genInputs(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return w, in
}

// TestTracedRunIsTheSameProgram: on every workload the traced run — timing
// wrappers around every policy, chooser and controller — gives results and
// an obs dump byte-identical to the same instrumented run with no wrappers,
// and the rows match the uninstrumented run too.
func TestTracedRunIsTheSameProgram(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			w, in := testInputs(t, w.name)
			tr := &tracer{}
			traced := runAll(t, w, in, tr, true)
			plain := runAll(t, w, in, nil, true)
			bare := runAll(t, w, in, nil, false)
			for i := range traced {
				if traced[i].rowText() != plain[i].rowText() || plain[i].rowText() != bare[i].rowText() {
					t.Errorf("%s: rows differ:\ntraced   %s\nplain    %s\nno obs   %s", traced[i].label(), traced[i].rowText(), plain[i].rowText(), bare[i].rowText())
				}
				if !bytes.Equal(dump(t, traced[i].reg), dump(t, plain[i].reg)) {
					t.Errorf("%s: obs dump differs with the wrappers attached", traced[i].label())
				}
			}
			if totals(tr.tick).calls == 0 || totals(tr.place).calls == 0 {
				t.Errorf("wrappers recorded no calls: tick %d, place %d", totals(tr.tick).calls, totals(tr.place).calls)
			}
		})
	}
}

// TestCellsMatchExperiments: every cell the benchmark assembles through
// the public API equals the matching row of the shipped experiment byte
// for byte, so the benchmark measures the experiments the repository ships.
func TestCellsMatchExperiments(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			w, in := testInputs(t, w.name)
			cells := runAll(t, w, in, nil, false)
			var want []string
			switch {
			case w.room != nil:
				ev := *w.room
				ev.TraceSeed = testSeed
				for _, label := range w.roomCells {
					ev.Policy = label
					rows, err := experiments.RoomPolicyComparison(in.base, ev)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, outcome{room: &rows[0]}.rowText())
				}
			case w.capped:
				ev := *w.rack
				ev.TraceSeed = testSeed
				res, err := experiments.RackACComparison(in.base, ev)
				if err != nil {
					t.Fatal(err)
				}
				for i := range res.Capped {
					want = append(want, outcome{rack: &res.Capped[i]}.rowText())
				}
			default:
				ev := *w.rack
				ev.TraceSeed = testSeed
				rows, err := experiments.RackPolicyComparison(in.base, ev)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rows {
					want = append(want, outcome{rack: &rows[i]}.rowText())
				}
			}
			if len(want) != len(cells) {
				t.Fatalf("%d experiment rows for %d cells", len(want), len(cells))
			}
			for i, c := range cells {
				if got := c.rowText(); got != want[i] {
					t.Errorf("cell %d differs from the experiment row:\ngot  %s\nwant %s", i, got, want[i])
				}
			}
		})
	}
}

// implements lists which of the kernels' optional interfaces v satisfies.
func implements(v any) [4]bool {
	_, lr := v.(sched.LoadOnlyRefuser)
	_, cm := v.(room.RackCommitter)
	_, hp := v.(control.HorizonPromiser)
	_, bp := v.(control.BandPromiser)
	return [4]bool{lr, cm, hp, bp}
}

// TestWrappersForwardOptionalInterfaces: each wrapper implements exactly
// the optional interfaces of the value it wraps.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	table, err := lut.Build(server.T3Config(), lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	tables := []*lut.Table{table}
	la, err := sched.NewLeakageAwareFromTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	recirc, err := room.NewRecircAware([][]*lut.Table{tables}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := control.NewLUT(table, control.DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := control.NewBangBang(control.DefaultBangBang())
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	for _, p := range []sched.Policy{sched.NewRoundRobin(), sched.NewCoolestFirst(), la} {
		if got, want := implements(tr.policy(p)), implements(p); got != want {
			t.Errorf("policy %s: wrapper implements %v, wrapped value %v", p.Name(), got, want)
		}
	}
	for _, c := range []room.RackChooser{room.NewRoundRobinRacks(), room.NewLeastLoadedRack(), recirc} {
		if got, want := implements(tr.chooser(c)), implements(c); got != want {
			t.Errorf("chooser %s: wrapper implements %v, wrapped value %v", c.Name(), got, want)
		}
	}
	for _, c := range []control.Controller{control.NewDefault(), lc, bb} {
		if got, want := implements(tr.controller(c)), implements(c); got != want {
			t.Errorf("controller %s: wrapper implements %v, wrapped value %v", c.Name(), got, want)
		}
	}
}
