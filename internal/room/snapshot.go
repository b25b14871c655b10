package room

import (
	"fmt"

	"repro/internal/rack"
)

// State is the serializable mutable state of a Room built from the same
// Config: every rack's state plus the room clock, the currently applied
// recirculation offsets (physical state, not accounting), the shared-bank
// meters and peaks, and the facility-scope fault state. The wallE0 segment
// scratch is derived — checkpoints only happen between segments, where it
// is dead.
type State struct {
	Racks []rack.State
	Clock float64

	Offsets  []float64
	LastWall []float64

	HeatJ      float64
	CoolJ      float64
	FacJ       float64
	LastWallW  float64
	LastCoolW  float64
	PeakWallW  float64
	PeakFacW   float64
	MaxRecircC float64

	CracOut       int
	ChillerDerate float64
}

// Snapshot captures the room for a checkpoint. It must be called between
// steps/segments, never concurrently with Step.
func (rm *Room) Snapshot() (State, error) {
	st := State{
		Racks:         make([]rack.State, len(rm.racks)),
		Clock:         rm.clock,
		Offsets:       append([]float64(nil), rm.offsets...),
		LastWall:      append([]float64(nil), rm.lastWall...),
		HeatJ:         rm.heatJ,
		CoolJ:         rm.coolJ,
		FacJ:          rm.facJ,
		LastWallW:     rm.lastWallW,
		LastCoolW:     rm.lastCoolW,
		PeakWallW:     rm.peakWallW,
		PeakFacW:      rm.peakFacW,
		MaxRecircC:    rm.maxRecircC,
		CracOut:       rm.cracOut,
		ChillerDerate: rm.chillerDerate,
	}
	for i, rk := range rm.racks {
		rs, err := rk.Snapshot()
		if err != nil {
			return State{}, fmt.Errorf("room: rack %d: %w", i, err)
		}
		st.Racks[i] = rs
	}
	return st, nil
}

// Restore loads a captured State into a room built from the same Config.
func (rm *Room) Restore(st State) error {
	if len(st.Racks) != len(rm.racks) {
		return fmt.Errorf("room: state has %d racks, room has %d", len(st.Racks), len(rm.racks))
	}
	if len(st.Offsets) != len(rm.racks) || len(st.LastWall) != len(rm.racks) {
		return fmt.Errorf("room: state offset/wall vectors do not match %d racks", len(rm.racks))
	}
	rm.gen++
	for i, rk := range rm.racks {
		if err := rk.Restore(st.Racks[i]); err != nil {
			return fmt.Errorf("room: rack %d: %w", i, err)
		}
	}
	rm.clock = st.Clock
	copy(rm.offsets, st.Offsets)
	copy(rm.lastWall, st.LastWall)
	rm.heatJ = st.HeatJ
	rm.coolJ = st.CoolJ
	rm.facJ = st.FacJ
	rm.lastWallW = st.LastWallW
	rm.lastCoolW = st.LastCoolW
	rm.peakWallW = st.PeakWallW
	rm.peakFacW = st.PeakFacW
	rm.maxRecircC = st.MaxRecircC
	rm.cracOut = st.CracOut
	rm.chillerDerate = st.ChillerDerate
	return nil
}
