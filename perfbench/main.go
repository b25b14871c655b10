// Command perfbench is the repository benchmark. It runs one named
// workload through the public API — LUT builds, rack or room construction,
// the placement policies, Settle and the trace runners — for a fixed wall
// time, checks every output, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as the last line of standard
// output, one JSON object.
//
//	go run . --workload rack-quiet --seed 42 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "rack-quiet", "workload to run: rack-quiet, rack-saturated or room-1024")
	seed := fs.Int64("seed", 42, "workload seed: the job trace and the per-server sensor-noise seeds derive from it")
	seconds := fs.Float64("seconds", 25, "wall seconds of timed passes (at least three passes run regardless)")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minPasses is the fewest timed passes a run makes, whatever --seconds
// says, so every median has at least three samples (per kind, traced runs
// alternate untraced and traced passes).
const minPasses = 3

// minSetups is how many setups a run times, passes included, unless that
// would take more than a fifth of the budget on top of the passes: a rack
// setup takes milliseconds, so a handful of samples would leave setup_s to
// scheduling noise.
const minSetups = 21

// pass is one timed repetition: a full setup (its time goes to
// report.setups), then every cell's trace.
type pass struct {
	traced   bool
	heapMiB  float64 // live heap after setup, after a GC
	run      time.Duration
	allocMiB float64 // MiB allocated during the run
	gcs      float64 // GC cycles during the run
	tr       *tracer
	outs     []outcome
}

// tally counts cell runs attempted and failed — errors, panics and broken
// output checks alike.
type tally struct {
	attempted, failed int
}

func (t *tally) record(what string, o outcome, err error, in inputs) {
	t.attempted++
	if err == nil {
		err = checkOutcome(o, in)
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// runCell serves the trace on one cell, turning a panic into an error.
func runCell(c *cell, in inputs, event bool, reg *obs.Registry) (o outcome, d time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	o, err = c.run(in, event, reg)
	return o, time.Since(t0), err
}

// bench runs the workload: inputs from the seed, an untimed fixed-dt
// reference pass and an untimed instrumented event pass (the baseline every
// timed pass must reproduce byte for byte), then timed passes until the
// budget is spent, then — traced runs only — the steady-state probes.
func bench(w *workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	in, err := w.genInputs(seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	rep := &report{w: w, seed: seed, traced: traced, jobs: len(in.jobs)}

	ref, err := rep.untimedPass(in, false, "fixed-dt reference")
	if err != nil {
		return nil, err
	}
	base, err := rep.untimedPass(in, true, "instrumented baseline")
	if err != nil {
		return nil, err
	}
	rep.base = base
	rep.relErr, rep.mismatch, rep.mismatchDetail = accuracy(base, ref)

	least := minPasses
	if traced {
		least *= 2 // untraced and traced passes alternate
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start) < budget; i++ {
		p, err := rep.timedPass(in, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		rep.passes = append(rep.passes, p)
	}
	for extra := time.Now(); len(rep.setups) < minSetups && time.Since(extra) < budget/5; {
		runtime.GC()
		_, st, err := w.setup(in, nil, true)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.setups = append(rep.setups, st)
	}

	if traced {
		sys, _, err := w.setup(in, nil, true)
		if err != nil {
			return nil, fmt.Errorf("probe setup: %w", err)
		}
		rep.probes = runProbes(sys, windowMix(rep.lastTraced().regs(), w.windowHist()))
	}
	return rep, nil
}

// untimedPass sets up and runs every cell once on the given kernel, each
// cell under its own obs registry, and checks the outputs.
func (rep *report) untimedPass(in inputs, event bool, what string) ([]outcome, error) {
	sys, _, err := rep.w.setup(in, nil, event)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", what, err)
	}
	outs := make([]outcome, len(sys.cells))
	for i, c := range sys.cells {
		o, _, err := runCell(c, in, event, obs.NewRegistry())
		rep.tally.record(what+" "+c.label, o, err, in)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", what, c.label, err)
		}
		outs[i] = o
	}
	return outs, nil
}

// timedPass is one timed setup plus one timed run of every cell. A traced
// pass wraps every policy, chooser and controller and attaches an obs
// registry per cell; an untraced pass attaches nothing.
func (rep *report) timedPass(in inputs, traced bool) (pass, error) {
	p := pass{traced: traced}
	if traced {
		p.tr = &tracer{}
	}
	runtime.GC()
	sys, st, err := rep.w.setup(in, p.tr, true)
	if err != nil {
		return p, fmt.Errorf("setup: %w", err)
	}
	rep.setups = append(rep.setups, st)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC

	p.outs = make([]outcome, len(sys.cells))
	errs := make([]error, len(sys.cells))
	for i, c := range sys.cells {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
		}
		var d time.Duration
		p.outs[i], d, errs[i] = runCell(c, in, true, reg)
		p.run += d
	}
	runtime.ReadMemStats(&ms)
	p.allocMiB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	p.gcs = float64(ms.NumGC - gc0)

	kind := "untraced"
	if traced {
		kind = "traced"
	}
	for i, c := range sys.cells {
		err := errs[i]
		if err == nil {
			err = sameAsBaseline(p.outs[i], rep.base[i], traced)
		}
		rep.tally.record(kind+" "+c.label, p.outs[i], err, in)
	}
	return p, nil
}
