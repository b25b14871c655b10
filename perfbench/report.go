package main

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// report is everything one benchmark run measured.
type report struct {
	w      *workload
	seed   int64
	traced bool
	jobs   int

	tally  tally
	base   []outcome // instrumented untimed event pass: the byte-identity baseline
	passes []pass
	setups []setupTimes // every timed setup, of passes and setup-only runs
	probes probes

	relErr         float64
	mismatch       int
	mismatchDetail string
}

// sameAsBaseline requires a timed pass to reproduce the baseline's row byte
// for byte, and — traced — its obs dump too: the wrappers must not change
// the program they measure.
func sameAsBaseline(o, base outcome, traced bool) error {
	if o.rowText() != base.rowText() {
		return fmt.Errorf("result differs from the untimed baseline:\n  got  %s\n  want %s", o.rowText(), base.rowText())
	}
	if traced {
		var got, want bytes.Buffer
		if err := o.reg.WriteText(&got); err != nil {
			return err
		}
		if err := base.reg.WriteText(&want); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("obs dump differs from the unwrapped baseline")
		}
	}
	return nil
}

// windowHist names the kernel window-length histogram of the workload's
// trace runner.
func (w *workload) windowHist() string {
	if w.room != nil {
		return "room.window.len"
	}
	return "kernel.window.len"
}

// servers is the number of servers in one cell's system.
func (w *workload) servers() int {
	if w.room != nil {
		return w.room.Racks * w.room.Servers
	}
	return w.rack.Servers
}

func (w *workload) horizon() float64 {
	if w.room != nil {
		return w.room.Horizon
	}
	return w.rack.Horizon
}

func (p *pass) regs() []*obs.Registry {
	out := make([]*obs.Registry, len(p.outs))
	for i, o := range p.outs {
		out[i] = o.reg
	}
	return out
}

func (rep *report) lastTraced() *pass {
	for i := len(rep.passes) - 1; i >= 0; i-- {
		if rep.passes[i].traced {
			return &rep.passes[i]
		}
	}
	return nil
}

// samples collects one per-pass figure over the passes of one kind.
func (rep *report) samples(traced bool, f func(p *pass) float64) []float64 {
	var xs []float64
	for i := range rep.passes {
		if p := &rep.passes[i]; p.traced == traced {
			xs = append(xs, f(p))
		}
	}
	return xs
}

func (rep *report) untracedPasses() int {
	n := 0
	for _, p := range rep.passes {
		if !p.traced {
			n++
		}
	}
	return n
}

func (rep *report) med(traced bool, f func(p *pass) float64) float64 {
	return median(rep.samples(traced, f))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// setupMedian is the median over every timed setup of one of its times,
// in seconds.
func (rep *report) setupMedian(f func(st setupTimes) time.Duration) float64 {
	xs := make([]float64, len(rep.setups))
	for i, st := range rep.setups {
		xs[i] = seconds(f(st))
	}
	return median(xs)
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd is the untraced run's metrics; the JSON carries the first four,
// the last three are the accuracy and failure figures printed beside them.
func (rep *report) endToEnd() []metric {
	runS := rep.med(false, func(p *pass) float64 { return seconds(p.run) })
	cells := float64(len(rep.base))
	n := rep.untracedPasses()
	failRate := float64(rep.tally.failed) / float64(rep.tally.attempted)
	return []metric{
		{"setup_s", rep.setupMedian(func(st setupTimes) time.Duration { return st.total }), "s", fmt.Sprintf("median of %d setups", len(rep.setups))},
		{"run_s", runS, "s", fmt.Sprintf("median of %d passes over %g cells", n, cells)},
		{"sim_speed", float64(rep.w.servers()) * rep.w.horizon() * cells / runS, "server-s/s", "servers × horizon × cells ÷ run_s"},
		{"heap_mb", rep.med(false, func(p *pass) float64 { return p.heapMiB }), "MiB", "live heap after setup"},
		{"energy_rel_err", rep.relErr, "ratio", "event kernel vs fixed-dt reference; budget 1e-6"},
		{"sched_mismatch", float64(rep.mismatch), "cells", "scheduling outcome differs from fixed-dt"},
		{"fail_rate", failRate, "ratio", fmt.Sprintf("%d of %d cell runs failed", rep.tally.failed, rep.tally.attempted)},
	}
}

// obsCounts sums the traced pass's per-cell registries.
func (rep *report) obsCounts() map[string]float64 {
	sum := make(map[string]float64)
	for _, reg := range rep.lastTraced().regs() {
		for k, v := range counters(reg) {
			sum[k] += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTerm is one row of the per-layer table: calls × ns per call,
// next to run_s. Nested terms are shown but not summed into the
// reconciliation because an enclosing term already covers them.
type layerTerm struct {
	name   string
	calls  float64
	nsCall float64
	nested string
}

func (t layerTerm) seconds() float64 { return t.calls * t.nsCall * 1e-9 }

// covered sums the terms that are not nested in another one.
func covered(terms []layerTerm) float64 {
	var s float64
	for _, t := range terms {
		if t.nested == "" {
			s += t.seconds()
		}
	}
	return s
}

// perLayer is the traced run's metrics plus the per-layer table.
func (rep *report) perLayer() ([]metric, []layerTerm, float64) {
	traced := func(f func(p *pass) float64) float64 { return rep.med(true, f) }
	callSec := func(sel func(t *tracer) []*callStat) (calls, busy float64) {
		calls = float64(totals(sel(rep.lastTraced().tr)).calls)
		busy = traced(func(p *pass) float64 { return seconds(totals(sel(p.tr)).busy) })
		return calls, busy
	}
	placeN, placeS := callSec(func(t *tracer) []*callStat { return t.place })
	chooseN, chooseS := callSec(func(t *tracer) []*callStat { return t.choose })
	tickN, tickS := callSec(func(t *tracer) []*callStat { return t.tick })
	runTraced := traced(func(p *pass) float64 { return seconds(p.run) })
	runUntraced := rep.med(false, func(p *pass) float64 { return seconds(p.run) })

	c := rep.obsCounts()
	pr := rep.probes
	// Room.Step is every rack's Step plus the serial post-barrier phase;
	// zero without a room.
	var barrier float64
	if rep.w.room != nil {
		barrier = pr.roomStep - float64(rep.w.room.Racks)*pr.rackStep
	}
	// The rack runner's kernel.* and the room runner's room.* counters
	// share one pin taxonomy; kernel.* figures below sum both scopes.
	adv := c["kernel.steps.total"] + c["room.rack.steps.total"]
	macro := c["kernel.windows.macro"] + c["room.windows.macro"]
	pin := func(r string) float64 { return c["kernel.pin."+r] + c["room.pin."+r] }
	singles := adv - macro

	// Every chunk a kernel advances is preceded by one controller tick of
	// its rack; control.tick is that tick's Controller.Tick share.
	terms := []layerTerm{
		{name: "rack.tick", calls: adv, nsCall: pr.rackTick},
		{name: "control.tick", calls: tickN, nsCall: ratio(tickS*1e9, tickN), nested: "in rack.tick"},
		{name: "rack.advance(dt,1)", calls: singles, nsCall: pr.rackAdvance1},
		{name: "rack.advance(dt,K) over the window mix", calls: macro, nsCall: pr.rackAdvanceMix},
	}
	if rep.w.room != nil {
		// The room kernel asks every rack chunk for its quiet horizon and
		// runs the serial barrier once per segment; one view build per head
		// placement attempt covers the whole room — every Choose call except
		// the retries after a slot-policy refusal.
		terms = append(terms,
			layerTerm{name: "rack.quiet_horizon", calls: adv, nsCall: pr.rackQuiet},
			layerTerm{name: "room.barrier", calls: c["room.segments"], nsCall: barrier},
			layerTerm{name: "sched.view per server", calls: (chooseN - (placeN - c["room.placements"])) * float64(rep.w.servers()), nsCall: pr.view},
		)
	} else {
		// The rack kernel skips the quiet-horizon query on backlog- and
		// trip-guard-pinned steps, guards every advance with StateSum, and
		// builds one view per Place call.
		terms = append(terms,
			layerTerm{name: "rack.quiet_horizon", calls: adv - pin("backlog") - pin("trip-guard"), nsCall: pr.rackQuiet},
			layerTerm{name: "rack.state_sum", calls: adv, nsCall: pr.stateSum},
			layerTerm{name: "sched.view per server", calls: placeN * float64(rep.w.servers()), nsCall: pr.view},
		)
	}
	terms = append(terms,
		layerTerm{name: "sched.place", calls: placeN, nsCall: ratio(placeS*1e9, placeN)},
		layerTerm{name: "room.choose", calls: chooseN, nsCall: ratio(chooseS*1e9, chooseN)},
	)
	sum := covered(terms)

	setup := rep.setupMedian
	placements, deferrals := c["sched.placements"], c["sched.deferrals"]
	hits, misses := c["rack.prop.hits"], c["rack.prop.misses"]
	ms := []metric{
		{"lut.build_s", setup(func(st setupTimes) time.Duration { return st.lutBuild }), "s", ""},
		{"rack.new_s", setup(func(st setupTimes) time.Duration { return st.rackNew }), "s", ""},
		{"room.new_s", setup(func(st setupTimes) time.Duration { return st.roomNew }), "s", ""},
		{"sched.settle_s", setup(func(st setupTimes) time.Duration { return st.settle }), "s", ""},
		{"room.settle_s", setup(func(st setupTimes) time.Duration { return st.roomSettle }), "s", ""},
		{"sched.place.calls", placeN, "count", ""},
		{"sched.place_s", placeS, "s", ""},
		{"room.choose.calls", chooseN, "count", ""},
		{"room.choose_s", chooseS, "s", ""},
		{"control.tick.calls", tickN, "count", ""},
		{"control.tick_s", tickS, "s", ""},
		{"kernel.self_s", runTraced - placeS - chooseS - tickS, "s", "traced run_s − place − choose − tick"},
		{"trace.overhead", runTraced/runUntraced - 1, "ratio", fmt.Sprintf("traced run_s %.4g s ÷ untraced %.4g s − 1", runTraced, runUntraced)},
		{"server.step_ns", pr.serverStep, "ns", ""},
		{"rack.tick_ns", pr.rackTick, "ns", "Rack.TickControllers"},
		{"rack.quiet_ns", pr.rackQuiet, "ns", "Rack.QuietHorizonCause"},
		{"rack.state_sum_ns", pr.stateSum, "ns", "Rack.StateSum"},
		{"sched.view_ns", pr.view, "ns", "one ServerView from the public getters"},
		{"rack.advance1_ns", pr.rackAdvance1, "ns", ""},
		{"rack.advance_window_ns", pr.rackAdvanceK, "ns", fmt.Sprintf("K = %d", pr.k)},
		{"rack.advance_window_k", float64(pr.k), "steps", "median macro-window length"},
		{"rack.advance_mix_ns", pr.rackAdvanceMix, "ns", "over the trace's window-length mix"},
		{"room.step_ns", pr.roomStep, "ns", ""},
		{"room.barrier_ns", barrier, "ns", "room.step_ns − racks × Rack.Step"},
		{"layer.reconcile", sum / runUntraced, "ratio", "Σ layer terms ÷ untraced run_s"},
		{"kernel.advances", adv, "count", ""},
		{"kernel.macro_windows", macro, "count", ""},
		{"kernel.single_step_share", ratio(singles, adv), "ratio", ""},
		{"kernel.pin.backlog", pin("backlog"), "count", ""},
		{"kernel.pin.arrival", pin("arrival"), "count", ""},
		{"kernel.pin.completion", pin("completion"), "count", ""},
		{"room.pin.arrival", c["room.pin.arrival"], "count", ""},
		{"room.segments", c["room.segments"], "count", ""},
		{"room.placements", c["room.placements"], "count", ""},
		{"rack.macro.anchors", c["rack.macro.anchors"], "count", ""},
		{"rack.macro.anchors_per_window", ratio(c["rack.macro.anchors"], macro), "ratio", ""},
		{"rack.macro.plain.tail", c["rack.macro.plain.tail"], "count", ""},
		{"rack.macro.collapsed_steps", c["rack.macro.collapsed_steps"], "count", ""},
		{"rack.prop.builds", c["rack.prop.builds"], "count", ""},
		{"rack.prop.hit_ratio", ratio(hits, hits+misses), "ratio", ""},
		{"sched.placements", placements, "count", ""},
		{"sched.deferrals", deferrals, "count", ""},
		{"sched.deferral_ratio", ratio(deferrals, placements+deferrals), "ratio", ""},
		{"go.run_alloc_mb", rep.med(false, func(p *pass) float64 { return p.allocMiB }), "MiB", "untraced passes"},
		{"go.gc_cycles", rep.med(false, func(p *pass) float64 { return p.gcs }), "count", "untraced passes"},
		{"energy_rel_err", rep.relErr, "ratio", ""},
		{"sched_mismatch", float64(rep.mismatch), "cells", ""},
	}
	return ms, terms, runUntraced
}

// print writes the human-readable report: the run's shape, every
// end-to-end metric with its unit and, traced, every per-layer metric and
// the reconciliation table.
func (rep *report) print(out io.Writer) {
	w := rep.w
	nu := rep.untracedPasses()
	fmt.Fprintf(out, "workload %s  seed %d  %d cells × %d servers  horizon %g s  %d jobs  event kernel  %d untraced + %d traced passes\n",
		w.name, rep.seed, len(rep.base), w.servers(), w.horizon(), rep.jobs, nu, len(rep.passes)-nu)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end (untraced)\tvalue\tunit\t")
	for _, m := range rep.endToEnd() {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.name, m.value, m.unit, m.note)
	}
	tw.Flush()
	if rep.mismatchDetail != "" {
		fmt.Fprint(out, rep.mismatchDetail)
	}
	if !rep.traced {
		return
	}
	ms, terms, runS := rep.perLayer()
	fmt.Fprintln(tw, "per-layer (traced)\tvalue\tunit\t")
	for _, m := range ms {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.name, m.value, m.unit, m.note)
	}
	tw.Flush()
	fmt.Fprintln(tw, "layer\tcalls\tns/call\ts\tshare of run_s\t")
	for _, t := range terms {
		share := fmt.Sprintf("%.3f", t.seconds()/runS)
		if t.nested != "" {
			share = "(" + t.nested + ")"
		}
		fmt.Fprintf(tw, "  %s\t%.0f\t%.1f\t%.4f\t%s\t\n", t.name, t.calls, t.nsCall, t.seconds(), share)
	}
	sum := covered(terms)
	fmt.Fprintf(tw, "  Σ layers\t\t\t%.4f\t%.3f\t\n", sum, sum/runS)
	fmt.Fprintf(tw, "  run_s (untraced)\t\t\t%.4f\t1\t\n", runS)
	tw.Flush()
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// e2eKeys are the end-to-end metrics the result line carries; the
// accuracy and failure figures are printed beside them (fail_rate is the
// line's failed ÷ attempted, the accuracy figures ride in the traced line).
var e2eKeys = map[string]bool{"setup_s": true, "run_s": true, "sim_speed": true, "heap_mb": true}

func (rep *report) result() jsonResult {
	res := jsonResult{
		Correct:   rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	if rep.traced {
		ms, _, _ := rep.perLayer()
		for _, m := range ms {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		return res
	}
	for _, m := range rep.endToEnd() {
		if e2eKeys[m.name] {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	return res
}
