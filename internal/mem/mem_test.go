package mem

import (
	"math"
	"testing"
)

func newBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumDIMMs = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero DIMMs should error")
	}
	bad = DefaultConfig()
	bad.TimeConstant = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero time constant should error")
	}
	bad = DefaultConfig()
	bad.AirflowPerRPM = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero airflow should error")
	}
}

func TestBankStartsAtAmbient(t *testing.T) {
	b := newBank(t)
	if b.NumDIMMs() != 32 {
		t.Fatalf("DIMMs = %d", b.NumDIMMs())
	}
	for i := 0; i < 32; i++ {
		temp, err := b.Temp(i)
		if err != nil {
			t.Fatal(err)
		}
		if temp != 24 {
			t.Fatalf("DIMM %d starts at %v", i, temp)
		}
	}
	if _, err := b.Temp(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := b.Temp(32); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestPowerModel(t *testing.T) {
	b := newBank(t)
	if got := float64(b.Power(0)); got != 40 {
		t.Fatalf("idle power = %g", got)
	}
	if got := float64(b.Power(100)); math.Abs(got-126) > 1e-9 {
		t.Fatalf("full power = %g, want 126", got)
	}
}

func TestInletPreheat(t *testing.T) {
	b := newBank(t)
	// More load → more preheat; more airflow → less preheat.
	low := float64(b.InletPreheat(0, 3300))
	high := float64(b.InletPreheat(100, 3300))
	if high <= low {
		t.Fatalf("preheat should rise with load: %g vs %g", low, high)
	}
	slowFan := float64(b.InletPreheat(100, 1800))
	fastFan := float64(b.InletPreheat(100, 4200))
	if slowFan <= fastFan {
		t.Fatalf("preheat should fall with airflow: %g vs %g", slowFan, fastFan)
	}
	// Calibrated magnitude: ~1.3°C at 100% and 3300 RPM.
	if got := float64(b.InletPreheat(100, 3300)); got < 0.8 || got > 2.0 {
		t.Fatalf("preheat(100%%, 3300) = %g, want ~1.3", got)
	}
	// Zero airflow is capped, not infinite.
	if got := float64(b.InletPreheat(100, 0)); got > 15 {
		t.Fatalf("zero-airflow preheat = %g", got)
	}
}

func TestStepConvergesToSettle(t *testing.T) {
	b := newBank(t)
	want := newBank(t)
	want.Settle(24, 80, 2400)
	for i := 0; i < 100; i++ {
		b.Step(10, 24, 80, 2400)
	}
	for i := 0; i < 32; i++ {
		got, _ := b.Temp(i)
		expect, _ := want.Temp(i)
		if math.Abs(float64(got-expect)) > 0.05 {
			t.Fatalf("DIMM %d: %v vs settled %v", i, got, expect)
		}
	}
}

func TestDownstreamDIMMsHotter(t *testing.T) {
	b := newBank(t)
	b.Settle(24, 100, 2400)
	first, _ := b.Temp(0)
	last, _ := b.Temp(31)
	if last <= first {
		t.Fatalf("downstream DIMM %v should be hotter than upstream %v", last, first)
	}
	if b.MaxTemp() != last {
		t.Fatalf("MaxTemp %v != last DIMM %v", b.MaxTemp(), last)
	}
}

func TestDIMMTempsReasonable(t *testing.T) {
	b := newBank(t)
	b.Settle(24, 100, 3300)
	for i, temp := range b.Temps() {
		if temp < 24 || temp > 70 {
			t.Fatalf("DIMM %d settled at %v — outside plausible range", i, temp)
		}
	}
}

func TestStepLagBehaviour(t *testing.T) {
	b := newBank(t)
	// One time constant: ~63% of the way to equilibrium.
	eq := newBank(t)
	eq.Settle(24, 100, 1800)
	target, _ := eq.Temp(0)
	b.Step(60, 24, 100, 1800) // τ = 60 s
	got, _ := b.Temp(0)
	frac := float64(got-24) / float64(target-24)
	if math.Abs(frac-0.632) > 0.01 {
		t.Fatalf("one-τ fraction = %g, want ~0.632", frac)
	}
	// Non-positive dt is a no-op.
	before, _ := b.Temp(0)
	b.Step(0, 24, 100, 1800)
	b.Step(-3, 24, 100, 1800)
	after, _ := b.Temp(0)
	if before != after {
		t.Fatal("non-positive dt changed state")
	}
}

func TestTempsCopyIsolation(t *testing.T) {
	b := newBank(t)
	ts := b.Temps()
	ts[0] = 999
	got, _ := b.Temp(0)
	if got == 999 {
		t.Fatal("Temps() must return a copy")
	}
}

// loopMaxSum is the from-scratch definition of MaxTemp and TempSum: a `>`
// fold from -Inf (NaN skipped) and a plain sum in index order.
func loopMaxSum(b *Bank) (float64, float64) {
	m, s := math.Inf(-1), 0.0
	for _, v := range b.temps {
		if v > m {
			m = v
		}
		s += v
	}
	return m, s
}

// TestCachedMaxSumMatchLoop: the max and sum every temperature write
// folds equal a fresh loop, bit for bit, after construction, Step, StepN,
// Settle and SetState — including a NaN DIMM, which MaxTemp skips and
// TempSum must not.
func TestCachedMaxSumMatchLoop(t *testing.T) {
	b := newBank(t)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	check := func(when string) {
		t.Helper()
		m, s := loopMaxSum(b)
		if gm, gs := float64(b.MaxTemp()), b.TempSum(); !same(gm, m) || !same(gs, s) {
			t.Fatalf("%s: cached max %v sum %v, loop max %v sum %v", when, gm, gs, m, s)
		}
	}
	check("construction")
	b.Step(1, 24, 60, 2400)
	check("Step")
	b.StepN(1, 37, 26, 90, 3000)
	check("StepN")
	b.StepN(2, 1, 22, 10, 1800)
	check("StepN n=1")
	b.Settle(25, 40, 2000)
	check("Settle")

	st := b.State()
	st.Temps[5] = math.NaN()
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	check("SetState with a NaN DIMM")
	if !math.IsNaN(b.TempSum()) {
		t.Fatalf("TempSum %v: a NaN DIMM must poison the sum", b.TempSum())
	}
	if math.IsNaN(float64(b.MaxTemp())) {
		t.Fatal("MaxTemp must skip a NaN DIMM")
	}
	b.Step(1, 24, 60, 2400)
	check("Step after NaN")
	if !math.IsNaN(b.TempSum()) {
		t.Fatal("a NaN DIMM must stay NaN through Step and keep poisoning the sum")
	}
	for i := range st.Temps {
		st.Temps[i] = math.NaN()
	}
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	check("all-NaN bank")
	if !math.IsInf(float64(b.MaxTemp()), -1) {
		t.Fatalf("all-NaN MaxTemp = %v, want -Inf", b.MaxTemp())
	}
}
