package server

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/units"
)

// syncedState is a server's State without the thermal network's derived
// inputs (boundary temperature, conductances, injected powers): every
// reader re-syncs those from the ambient, load, fans and temperatures, so
// only a reader's results — not when the inputs were last written — are
// observable.
func syncedState(s *Server) State {
	st := s.State()
	st.Net.PowerIn, st.Net.Boundaries, st.Net.Conductances = nil, nil, nil
	return st
}

// TestLazyAmbientSyncMatchesEager: SetAmbientOffset only writes the
// ambient and every reader of the thermal inputs syncs them first, so each
// reader — Step, MacroWindow with K = 1 and K ≥ 2, BandDecisionHorizon,
// and Snapshot → Restore → Step — gives the same bits as on a twin whose
// inputs were synced eagerly at the offset.
func TestLazyAmbientSyncMatchesEager(t *testing.T) {
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	readers := []struct {
		name string
		read func(t *testing.T, s *Server) []uint64
	}{
		{"Step", func(_ *testing.T, s *Server) []uint64 {
			s.Step(1)
			return bits(float64(s.Energy()), float64(s.MaxCPUTemp()))
		}},
		{"MacroWindow-1", func(_ *testing.T, s *Server) []uint64 {
			return bits(s.MacroWindow(1, 1))
		}},
		{"MacroWindow-60", func(_ *testing.T, s *Server) []uint64 {
			return bits(s.MacroWindow(1, 60))
		}},
		{"BandDecisionHorizon", func(_ *testing.T, s *Server) []uint64 {
			// A band 1.5 °C above the hottest die, in sensor terms: how
			// many instants it holds depends on the inlet the prediction
			// starts from.
			c := s.Config()
			hi := s.MaxCPUTemp() + units.Celsius(math.Max(c.HotSpotOffset, c.EdgeOffset)+6*c.TempNoise+bandLinMarginC+1.5)
			m := s.BandDecisionHorizon(1, 1, 5, 60, units.Celsius(math.Inf(-1)), hi)
			s.Step(1)
			return []uint64{uint64(m), math.Float64bits(float64(s.Energy()))}
		}},
		{"Restore-Step", func(t *testing.T, s *Server) []uint64 {
			fresh, err := New(T3Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetState(s.State()); err != nil {
				t.Fatal(err)
			}
			fresh.Step(1)
			if err := s.SetState(fresh.State()); err != nil {
				t.Fatal(err)
			}
			return bits(float64(s.Energy()), float64(s.MaxCPUTemp()))
		}},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			lazy, eager := macroPair(t, nil)
			for _, s := range []*Server{lazy, eager} {
				s.SetLoad(60)
				runWindows(s, 1, 300, 30) // a live kept anchor
			}
			// Repeated offsets (the second equal to the first, so a kept
			// anchor's input key matches) and offsets coalesced between
			// two reads.
			for round, offs := range [][]units.Celsius{{3, 5.5}, {5.5}, {-2}, {1, 0, 4}} {
				for _, d := range offs {
					lazy.SetAmbientOffset(d)
					eager.SetAmbientOffset(d)
					eager.syncThermalInputs()
				}
				got, want := r.read(t, lazy), r.read(t, eager)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: lazy reader returned %v, eager %v", round, got, want)
				}
				if ls, es := syncedState(lazy), syncedState(eager); !reflect.DeepEqual(ls, es) {
					t.Fatalf("round %d: state diverged:\nlazy  %+v\neager %+v", round, ls, es)
				}
				if lazy.Breakdown() != eager.Breakdown() {
					t.Fatalf("round %d: breakdown %+v vs %+v", round, lazy.Breakdown(), eager.Breakdown())
				}
			}
			if r.name == "MacroWindow-60" && lazy.MacroStats().CollapsedSteps == 0 {
				t.Fatal("no collapsed steps: the kept-anchor path was never exercised")
			}
		})
	}
}
