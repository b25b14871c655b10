package server

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fans"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Config is the full parameterization of the simulated server.
//
// Calibration notes (see DESIGN.md for the arithmetic):
//
//   - Leakage/active constants are the paper's own fit (k1=0.4452,
//     k2=0.3231, k3=0.04749) plus a C=10 W temperature-independent leakage
//     floor consistent with Fig. 2(a) magnitudes.
//   - RthBase/RthFlow give a server-level die-to-ambient resistance
//     Rth(RPM) = 0.195 + 1100/RPM °C/W, anchored to Fig. 1(a) steady
//     states: ~85 °C @1800 RPM and ~52 °C @4200 RPM at 100% utilization.
//   - The two-node RC (die: R=0.30 °C/W, C=33 J/°C per socket; sink:
//     C=220 J/°C) reproduces the fast 5-8 °C step in <30 s and the 5-15
//     minute fan-dependent settling of Fig. 1.
//   - IdleFloor=365 W is back-solved from Table I's net-savings arithmetic;
//     the memory dynamic slope 0.86 W/% from Table I energy magnitudes.
//   - The fan bank cubic coefficient 3.5e-10 W/RPM³ places the fan+leakage
//     minimum at 2400 RPM / ~68-70 °C for 100% utilization as in Fig. 2(a).
type Config struct {
	Ambient       units.Celsius // lab ambient, paper: 24 °C
	CriticalTemp  units.Celsius // server trip threshold, paper: 90 °C
	TargetMaxTemp units.Celsius // reliability target, paper: 75 °C

	Power power.ServerModel
	Fans  fans.Config
	Mem   mem.Config
	CPU   cpu.Topology

	// Per-socket thermal parameters.
	RDie      float64 // die→sink resistance, °C/W
	CDie      float64 // die capacitance, J/°C
	RSinkBase float64 // sink→air resistance floor, °C/W
	RSinkFlow float64 // airflow-dependent term: R = RSinkBase + RSinkFlow/RPM
	CSink     float64 // sink capacitance, J/°C

	// Sensor noise (standard deviations) applied to measured values only;
	// the underlying physics is deterministic.
	TempNoise  float64 // °C
	PowerNoise float64 // W
	NoiseSeed  int64

	// Die thermal sensors sit at fixed spots with a spatial gradient: the
	// first sensor of each die reads near the hot spot, the second near
	// the die edge. These offsets are added to the lumped die temperature,
	// so Tmax-driven policies (the bang-bang controller) see realistic
	// hot-spot values.
	HotSpotOffset float64 // °C, first sensor per die
	EdgeOffset    float64 // °C, second sensor per die

	// MaxThermalStep bounds the RC integrator step, seconds. It only
	// matters on the RK4 path; the exact propagator is step-size exact.
	MaxThermalStep float64

	// MacroDriftTolC bounds how far, in °C, any thermal node may move
	// from the temperatures the leakage linearization was anchored at
	// before a closed-form macro window (Server.MacroWindow) re-anchors at
	// the current temperatures; a kept anchor is reused by a later window
	// only if it starts within a quarter of this. Smaller values track the
	// fixed-dt reference more tightly at the cost of more re-anchors per
	// event gap; 0 selects the default 1 °C, which keeps whole-trace
	// energies within ~5e-7 relative (the error scales with the
	// tolerance). Values above the 5 °C thermal-trip guard band are
	// clamped to it. Only consulted by the event-stepping kernel; plain
	// Step ignores it.
	MacroDriftTolC float64

	// ThermalIntegrator selects the RC network stepping scheme. The zero
	// value, thermal.IntegratorExact, uses the cached matrix-exponential
	// propagator; thermal.IntegratorRK4 forces the classical fixed-step
	// fallback (the pre-optimization ground truth).
	ThermalIntegrator thermal.Integrator
}

// T3Config returns the calibrated reproduction of the paper's server.
func T3Config() Config {
	return Config{
		Ambient:       24,
		CriticalTemp:  90,
		TargetMaxTemp: 75,
		Power: power.ServerModel{
			IdleFloor: 365,
			Active:    power.ActiveModel{K1: 0.4452},
			Leakage:   power.LeakageModel{C: 10, K2: 0.3231, K3: 0.04749},
			Fans:      power.FanLaw{Coeff: 3.5e-10},
			Memory:    power.MemoryModel{Idle: 40, KU: 0.86},
		},
		Fans: fans.DefaultConfig(),
		Mem:  mem.DefaultConfig(),
		CPU:  cpu.T3Topology(),

		// Server-level Rth(RPM) = 0.195 + 1100/RPM splits per socket
		// (each socket carries half the CPU power) into 2×:
		// Rsocket = 0.39 + 2200/RPM = RDie + RSinkBase + RSinkFlow/RPM.
		// CSink is chosen so the *effective* settling time — the raw RC
		// constant amplified by 1/(1-leakage loop gain), which reaches
		// ~3.3× at the hot 1800 RPM point — lands at Fig. 1(a)'s ~15 min
		// for 1800 RPM.
		RDie:      0.30,
		CDie:      33,
		RSinkBase: 0.09,
		RSinkFlow: 2200,
		CSink:     66,

		TempNoise:     0.25,
		PowerNoise:    1.5,
		NoiseSeed:     1,
		HotSpotOffset: 2.5,
		EdgeOffset:    -1.5,

		MaxThermalStep: 1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RDie <= 0 || c.CDie <= 0 || c.RSinkBase < 0 || c.RSinkFlow <= 0 || c.CSink <= 0 {
		return fmt.Errorf("server: thermal parameters must be positive: %+v", c)
	}
	if c.CriticalTemp <= c.Ambient {
		return fmt.Errorf("server: critical temp %v must exceed ambient %v", c.CriticalTemp, c.Ambient)
	}
	if c.TargetMaxTemp >= c.CriticalTemp {
		return fmt.Errorf("server: target max %v must be below critical %v", c.TargetMaxTemp, c.CriticalTemp)
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	return nil
}

// ShiftAmbient returns the configuration with the inlet ambient moved by
// delta — the uniform shift a facility's cold-aisle setpoint applies to
// every server (see internal/cooling). A zero delta returns the receiver
// unchanged, preserving bit-identity for the no-shift path. Every caller
// that re-derives ambient-dependent state (rack construction, cost-table
// builds) must go through this one helper so the shift semantics cannot
// drift apart.
func (c Config) ShiftAmbient(delta units.Celsius) Config {
	if delta != 0 {
		c.Ambient += delta
	}
	return c
}

// RthServer returns the server-level die-to-inlet thermal resistance at a
// fan speed (°C/W of total CPU power).
func (c Config) RthServer(r units.RPM) float64 {
	rpm := float64(r)
	if rpm < 1 {
		rpm = 1
	}
	return (c.RDie + c.RSinkBase + c.RSinkFlow/rpm) / 2
}
