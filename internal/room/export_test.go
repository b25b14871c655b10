package room

import (
	"repro/internal/sched"
	"repro/internal/units"
)

// freshViews builds every rack view from scratch for the given loads —
// the snapshot the placer's kept views must equal at every Pick.
func freshViews(rm *Room, loads [][]units.Percent) []RackView {
	p := newPlacer(rm, nil)
	p.refresh(loads)
	return p.views
}

// checkingPlacer is the room placer with a probe on its kept views: at
// every Pick it hands check the views the placer is about to choose over
// and a fresh full rebuild, then places exactly as the plain placer does.
type checkingPlacer struct {
	*placer
	check func(kept, fresh []RackView)
}

func (c *checkingPlacer) Pick(j sched.Job, loads [][]units.Percent) (int, int, error) {
	c.refresh(loads)
	c.check(c.views, freshViews(c.rm, loads))
	return c.choose(j)
}

// runTraceCheckingViews is RunTrace with check called at every Pick (see
// checkingPlacer).
func runTraceCheckingViews(rm *Room, jobs []sched.Job, pol *Policy, tc TraceConfig, check func(kept, fresh []RackView)) (Result, error) {
	pol.reset()
	cp := &checkingPlacer{placer: newPlacer(rm, pol), check: check}
	return sched.RunPlant(rm, jobs, cp, tc.plantConfig(), tc.Faults)
}
