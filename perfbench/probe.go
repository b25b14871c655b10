package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/units"
)

// probes are steady-state ns-per-call figures of the layers the kernels are
// built from, measured on the workload's own settled system.
type probes struct {
	serverStep float64 // Server.Step(dt)
	rackTick   float64 // Rack.TickControllers
	rackQuiet  float64 // Rack.QuietHorizonCause
	stateSum   float64 // Rack.StateSum, the kernel's divergence guard
	// view is one sched.ServerView built from the public getters the
	// runners read, per server.
	view         float64
	rackAdvance1 float64 // Rack.Advance(dt, 1)
	rackAdvanceK float64 // Rack.Advance(dt, K) after a load step
	k            int     // the K of rackAdvanceK: the median window length
	// rackAdvanceMix is Rack.Advance after a load step, averaged over the
	// trace's window-length mix.
	rackAdvanceMix float64
	roomStep       float64 // Room.Step(dt); 0 without a room
	rackStep       float64 // Rack.Step(dt) of a room's rack; 0 without a room
}

// Sinks keep the probed results live.
var stateSink, quietSink float64

const (
	probeRounds = 5
	probeRound  = 40 * time.Millisecond
)

// nsPerCall times fn in rounds of at least probeRound each and returns the
// median round's mean ns per call. prep, when non-nil, runs untimed before
// every call, so each call is timed on its own; without it calls are timed
// in batches, keeping the clock reads out of short calls' figures.
func nsPerCall(prep func(i int), fn func()) float64 {
	batch := 64
	if prep != nil {
		batch = 1
	}
	rounds := make([]float64, probeRounds)
	calls := 0
	for r := range rounds {
		var busy time.Duration
		n := 0
		for busy < probeRound {
			if prep != nil {
				prep(calls)
			}
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				fn()
			}
			busy += time.Since(t0)
			n += batch
			calls++
		}
		rounds[r] = float64(busy.Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

// runProbes measures the steady-state probes on a freshly settled copy of
// the workload's first cell. mix is the trace's macro-window length mix
// (windowMix); its median is the K of the windowed probe.
func runProbes(sys *system, mix windowLengths) probes {
	c := sys.cells[0]
	rk, dt := c.rk, c.dt
	var p probes
	if c.rm != nil {
		rm := c.rm
		p.roomStep = nsPerCall(nil, func() { rm.Step(dt) })
		rk = rm.Rack(0)
		p.rackStep = nsPerCall(nil, func() { rk.Step(dt) })
	}
	srv := rk.Server(0)
	p.serverStep = nsPerCall(nil, func() { srv.Step(dt) })
	p.rackTick = nsPerCall(nil, func() { rk.TickControllers(rk.Now()) })
	p.rackQuiet = nsPerCall(nil, func() { quietSink, _ = rk.QuietHorizonCause(rk.Now(), dt) })
	p.stateSum = nsPerCall(nil, func() { stateSink += rk.StateSum() })
	n := rk.NumServers()
	views := make([]sched.ServerView, n)
	p.view = nsPerCall(nil, func() {
		for i := range views {
			views[i] = sched.ServerView{
				Index:      i,
				Name:       rk.Name(i),
				Load:       rk.Load(i),
				Free:       100 - rk.Load(i),
				MaxCPUTemp: rk.Server(i).MaxCPUTemp(),
				InletTemp:  rk.Server(i).InletTemp(),
				DCPower:    rk.ServerDCPower(i),
				WallPower:  rk.ServerWallPower(i),
				Health:     rk.Health(i),
			}
		}
	}) / float64(n)
	p.rackAdvance1 = nsPerCall(nil, func() { rk.Advance(dt, 1) })
	// Every trace window starts at an arrival or a completion, so each
	// windowed call starts with one slot's load stepping: slot i%n goes to
	// 40% on even sweeps over the rack and back to idle on odd ones.
	step := func(i int) {
		u := units.Percent(0)
		if (i/n)%2 == 0 {
			u = 40
		}
		rk.Server(i % n).SetLoad(u)
	}
	p.k = mix.median
	p.rackAdvanceK = nsPerCall(step, func() { rk.Advance(dt, p.k) })
	k := 0
	p.rackAdvanceMix = nsPerCall(func(i int) {
		step(i)
		k = mix.schedule[i%len(mix.schedule)]
	}, func() { rk.Advance(dt, k) })
	return p
}

// windowLengths summarizes the macro windows (longer than one step) of a
// kernel window-length histogram. Each bucket (lo, hi] stands for its
// geometric midpoint round(√(lo·hi)) — the open top bucket for twice the
// last bound — because the windowed advance costs more off powers of two,
// which bucket bounds always are.
type windowLengths struct {
	median   int   // the median window's bucket midpoint
	schedule []int // bucket midpoints in proportion to their counts
}

// mixSlots is the length of windowLengths.schedule.
const mixSlots = 64

func windowMix(regs []*obs.Registry, name string) windowLengths {
	var bounds []float64
	var cum []uint64
	for _, reg := range regs {
		for _, m := range reg.Snapshot() {
			if m.Name != name || m.Hist == nil {
				continue
			}
			if cum == nil {
				bounds = m.Hist.Bounds
				cum = make([]uint64, len(m.Hist.Counts))
			}
			for i, c := range m.Hist.Counts {
				cum[i] += c
			}
		}
	}
	none := windowLengths{median: 2, schedule: []int{2}}
	if len(cum) < 2 || bounds[0] != 1 {
		return none
	}
	macro := cum[len(cum)-1] - cum[0]
	if macro == 0 {
		return none
	}
	var wl windowLengths
	for i := 1; i < len(cum); i++ {
		hi := 2 * bounds[len(bounds)-1]
		if i < len(bounds) {
			hi = bounds[i]
		}
		mid := int(math.Max(bounds[i-1]+1, math.Round(math.Sqrt(bounds[i-1]*hi))))
		count := cum[i] - cum[i-1]
		if wl.median == 0 && 2*(cum[i]-cum[0]) >= macro {
			wl.median = mid
		}
		slots := int(math.Round(mixSlots * float64(count) / float64(macro)))
		if slots == 0 && count > 0 {
			slots = 1
		}
		for s := 0; s < slots; s++ {
			wl.schedule = append(wl.schedule, mid)
		}
	}
	return wl
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
