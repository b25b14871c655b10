package room

import (
	"testing"

	"repro/internal/cooling"
	"repro/internal/sched"
	"repro/internal/units"
)

// BenchmarkRoomPick times one room placement decision — the view refresh
// plus the recirc-pue chooser and the chosen rack's slot policy — on a
// settled 16×64 recirculation-coupled room behind the shared CRAC bank.
// fresh: the room moved since the previous decision (the first decision
// after a segment), so all 16 rack views are rebuilt. same-step: only one
// rack's loads changed since the previous decision (the next decision of
// the same step), so one view is rebuilt. Run it with a time-based
// -benchtime.
func BenchmarkRoomPick(b *testing.B) {
	const racks, servers = 16, 64
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	rm := testRoom(b, racks, servers, 1, NeighborMatrix(racks), &fac, true)
	if err := Settle(rm, 1, 600, true); err != nil {
		b.Fatal(err)
	}
	loads := make([][]units.Percent, racks)
	for r := range loads {
		loads[r] = make([]units.Percent, servers)
		for i := range loads[r] {
			loads[r][i] = units.Percent((23 * (i + 5*r)) % 81)
			rm.Rack(r).SetLoad(i, loads[r][i])
		}
	}
	for k := 0; k < 60; k++ { // warm the loaded racks so views differ
		rm.Step(1)
	}
	pol := recircPUEPolicy(b, rm, fac)
	job := sched.Job{ID: 1, Duration: 120, Demand: 20}
	pick := func(b *testing.B, p *placer) {
		if ri, _, err := p.Pick(job, loads); err != nil || ri < 0 {
			b.Fatalf("pick: rack %d, %v", ri, err)
		}
	}

	b.Run("fresh", func(b *testing.B) {
		p := newPlacer(rm, pol)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rm.gen++
			pick(b, p)
		}
	})
	b.Run("same-step", func(b *testing.B) {
		p := newPlacer(rm, pol)
		pick(b, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate 1 % and 2 % on slot 0 of each rack in turn, so
			// exactly one rack's loads differ from its kept view.
			loads[i%racks][0] = units.Percent(1 + (i/racks)%2)
			pick(b, p)
		}
	})
}
