package main

import (
	"time"

	"repro/internal/control"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/units"
)

// callStat is the call count and busy time of one wrapped value. Every
// wrapper owns its own callStat, so wrappers never share mutable state even
// if the program fans them out; the tracer sums them after the pass.
type callStat struct {
	calls int64
	busy  time.Duration
}

func (s *callStat) add(d time.Duration) {
	s.calls++
	s.busy += d
}

// tracer times the calls the benchmark makes into each layer's public
// interfaces: it hands out wrapped policies, choosers and controllers and
// keeps every wrapper's callStat. A nil *tracer wraps nothing, which is the
// untraced run.
type tracer struct {
	place, choose, tick []*callStat
}

// totals sums a set of wrapper stats.
func totals(stats []*callStat) callStat {
	var t callStat
	for _, s := range stats {
		t.calls += s.calls
		t.busy += s.busy
	}
	return t
}

// The wrappers below forward every optional interface the wrapped value
// implements and nothing more: the kernels type-assert sched.LoadOnlyRefuser,
// room.RackCommitter, control.HorizonPromiser and control.BandPromiser to
// decide how far they may macro-step, so a wrapper that hid one (or claimed
// one the wrapped value lacks) would make the traced run a different
// program. The checkpoint-only interfaces (sched.StatefulPolicy,
// control.Snapshotter) are not forwarded: the benchmark takes no
// checkpoints.

// policy wraps a slot policy so that Place is timed.
func (t *tracer) policy(p sched.Policy) sched.Policy {
	if t == nil {
		return p
	}
	st := &callStat{}
	t.place = append(t.place, st)
	tp := &timedPolicy{Policy: p, st: st}
	if lr, ok := p.(sched.LoadOnlyRefuser); ok {
		return &timedRefuserPolicy{timedPolicy: tp, lr: lr}
	}
	return tp
}

type timedPolicy struct {
	sched.Policy
	st *callStat
}

func (p *timedPolicy) Place(j sched.Job, views []sched.ServerView) int {
	t0 := time.Now()
	slot := p.Policy.Place(j, views)
	p.st.add(time.Since(t0))
	return slot
}

type timedRefuserPolicy struct {
	*timedPolicy
	lr sched.LoadOnlyRefuser
}

func (p *timedRefuserPolicy) RefusalIsLoadOnly() bool { return p.lr.RefusalIsLoadOnly() }

// chooser wraps a rack chooser so that Choose is timed.
func (t *tracer) chooser(c room.RackChooser) room.RackChooser {
	if t == nil {
		return c
	}
	st := &callStat{}
	t.choose = append(t.choose, st)
	tc := &timedChooser{RackChooser: c, st: st}
	lr, isLR := c.(sched.LoadOnlyRefuser)
	cm, isCM := c.(room.RackCommitter)
	switch {
	case isLR && isCM:
		return &timedRefuserCommitterChooser{timedChooser: tc, lr: lr, cm: cm}
	case isLR:
		return &timedRefuserChooser{timedChooser: tc, lr: lr}
	case isCM:
		return &timedCommitterChooser{timedChooser: tc, cm: cm}
	}
	return tc
}

type timedChooser struct {
	room.RackChooser
	st *callStat
}

func (c *timedChooser) Choose(j sched.Job, racks []room.RackView) int {
	t0 := time.Now()
	ri := c.RackChooser.Choose(j, racks)
	c.st.add(time.Since(t0))
	return ri
}

type timedRefuserChooser struct {
	*timedChooser
	lr sched.LoadOnlyRefuser
}

func (c *timedRefuserChooser) RefusalIsLoadOnly() bool { return c.lr.RefusalIsLoadOnly() }

type timedCommitterChooser struct {
	*timedChooser
	cm room.RackCommitter
}

func (c *timedCommitterChooser) Committed(rackIdx int) { c.cm.Committed(rackIdx) }

type timedRefuserCommitterChooser struct {
	*timedChooser
	lr sched.LoadOnlyRefuser
	cm room.RackCommitter
}

func (c *timedRefuserCommitterChooser) RefusalIsLoadOnly() bool { return c.lr.RefusalIsLoadOnly() }
func (c *timedRefuserCommitterChooser) Committed(rackIdx int)   { c.cm.Committed(rackIdx) }

// controller wraps a fan controller so that Tick is timed.
func (t *tracer) controller(c control.Controller) control.Controller {
	if t == nil {
		return c
	}
	st := &callStat{}
	t.tick = append(t.tick, st)
	tc := &timedController{Controller: c, st: st}
	if bp, ok := c.(control.BandPromiser); ok {
		return &timedBandController{timedController: tc, bp: bp}
	}
	if hp, ok := c.(control.HorizonPromiser); ok {
		return &timedPromiserController{timedController: tc, hp: hp}
	}
	return tc
}

type timedController struct {
	control.Controller
	st *callStat
}

func (c *timedController) Tick(o control.Observation) control.Decision {
	t0 := time.Now()
	d := c.Controller.Tick(o)
	c.st.add(time.Since(t0))
	return d
}

type timedPromiserController struct {
	*timedController
	hp control.HorizonPromiser
}

func (c *timedPromiserController) QuietUntil(now float64) float64 { return c.hp.QuietUntil(now) }

type timedBandController struct {
	*timedController
	bp control.BandPromiser
}

func (c *timedBandController) QuietUntil(now float64) float64 { return c.bp.QuietUntil(now) }

func (c *timedBandController) QuietBand(now float64) (next, period float64, lo, hi units.Celsius, ok bool) {
	return c.bp.QuietBand(now)
}
