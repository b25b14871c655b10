package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// randomMacroNet builds a small random RC network with boundary leaks,
// returning the network and per-node feedback slopes.
func randomMacroNet(t *testing.T, rng *rand.Rand, nodes int) (*Network, []float64) {
	t.Helper()
	n := NewNetwork(1)
	amb := n.AddBoundary("amb", 20+rng.Float64()*15)
	ids := make([]NodeID, nodes)
	for i := range ids {
		id, err := n.AddNode("n", 10+rng.Float64()*200, 25+rng.Float64()*40)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := n.ConnectBoundary(id, amb, 0.2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := n.SetPower(id, rng.Float64()*40); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nodes; i++ {
		if _, err := n.ConnectNodes(ids[i-1], ids[i], 0.5+2*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	slopes := make([]float64, nodes)
	for i := range slopes {
		if rng.Intn(2) == 0 {
			slopes[i] = rng.Float64() * 0.3 // stable feedback, W/°C
		}
	}
	return n, slopes
}

// cloneNetwork rebuilds an identical network by replaying the public
// construction calls, so the reference path shares no state with the
// network under test.
func cloneNetwork(t *testing.T, src *Network) *Network {
	t.Helper()
	dst := NewNetwork(src.maxStep)
	dst.SetIntegrator(src.integrator)
	for _, b := range src.boundaries {
		dst.AddBoundary(b.name, b.temp)
	}
	for _, nd := range src.nodes {
		id, err := dst.AddNode(nd.name, nd.capac, nd.temp)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.SetPower(id, nd.powerIn); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range src.links {
		var err error
		if l.toBoundary {
			_, err = dst.ConnectBoundary(l.a, l.bBound, l.g)
		} else {
			_, err = dst.ConnectNodes(l.a, l.b, l.g)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// iterateLinearized is the brute-force reference for the anchored map:
// single exact steps with the feedback slopes folded into the injected
// power around the anchor temperatures — exactly what the fixed-dt path
// does for a linear heat source. It returns Σ_{k=1..steps} T_k.
func iterateLinearized(t *testing.T, n *Network, steps int, dt float64, base, anchor, slopes []float64) []float64 {
	t.Helper()
	sums := make([]float64, len(base))
	for k := 0; k < steps; k++ {
		for i := range base {
			if err := n.SetPower(NodeID(i), base[i]+slopes[i]*(n.Temp(NodeID(i))-anchor[i])); err != nil {
				t.Fatal(err)
			}
		}
		n.Step(dt)
		for i := range sums {
			sums[i] += n.Temp(NodeID(i))
		}
	}
	return sums
}

// anchorInputs records the true anchor powers and temperatures the
// reference needs before the network under test moves.
func anchorInputs(n *Network) (base, anchor []float64) {
	for i := range n.nodes {
		base = append(base, n.nodes[i].powerIn)
		anchor = append(anchor, n.nodes[i].temp)
	}
	return base, anchor
}

// TestAnchoredMatchesIteratedMap pins the fixed-point closed form to the
// brute-force reference on random networks and slopes: T_K and Σ T_k
// match K iterations of the linearized map to 1e-9 °C, for window lengths
// below, at and far above the top ladder level. The sum is compared as
// the mean Σ T_k / K — the temperature the energy charge evaluates — since
// the rounding of T* enters the sum K times over.
func TestAnchoredMatchesIteratedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nodes := 2 + rng.Intn(4)
		na, slopes := randomMacroNet(t, rng, nodes)
		nb := cloneNetwork(t, na)
		base, anchor := anchorInputs(nb)

		dt := 0.5 + rng.Float64()*1.5
		steps := 1 + rng.Intn(1<<(2+rng.Intn(9)))
		if !na.Anchor(dt, slopes) {
			t.Fatalf("trial %d: anchor refused on a stable network", trial)
		}
		n, sums := na.AdvanceAnchored(steps, 1e9, 0)
		if n != steps {
			t.Fatalf("trial %d: wanted the full window %d, got %d", trial, steps, n)
		}
		refSums := iterateLinearized(t, nb, steps, dt, base, anchor, slopes)
		for i := 0; i < nodes; i++ {
			if d := math.Abs(na.Temp(NodeID(i)) - nb.Temp(NodeID(i))); d > 1e-9 {
				t.Fatalf("trial %d node %d (%d steps): endpoint off by %g (anchored %g vs ref %g)",
					trial, i, steps, d, na.Temp(NodeID(i)), nb.Temp(NodeID(i)))
			}
			if d := math.Abs(sums[i]/float64(steps) - refSums[i]/float64(steps)); d > 1e-9 {
				t.Fatalf("trial %d node %d (%d steps): mean of Σ T_k off by %g °C", trial, i, steps, d)
			}
		}
	}
}

// TestAnchoredComposes: advancing a steps and then b steps on one anchor
// lands where a+b steps do, and the two partial sums add up to the whole.
func TestAnchoredComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		nodes := 2 + rng.Intn(4)
		na, slopes := randomMacroNet(t, rng, nodes)
		nb := cloneNetwork(t, na)
		dt := 0.5 + rng.Float64()
		a, b := 1+rng.Intn(200), 1+rng.Intn(200)

		if !na.Anchor(dt, slopes) || !nb.Anchor(dt, slopes) {
			t.Fatalf("trial %d: anchor refused", trial)
		}
		na1, s1 := na.AdvanceAnchored(a, 1e9, 0)
		sa := append([]float64(nil), s1...)
		na2, s2 := na.AdvanceAnchored(b, 1e9, 1e9) // the second leg starts away from T₀
		nab, sab := nb.AdvanceAnchored(a+b, 1e9, 0)
		if na1 != a || na2 != b || nab != a+b {
			t.Fatalf("trial %d: advanced %d+%d and %d, want %d+%d", trial, na1, na2, nab, a, b)
		}
		for i := 0; i < nodes; i++ {
			if d := math.Abs(na.Temp(NodeID(i)) - nb.Temp(NodeID(i))); d > 1e-9 {
				t.Fatalf("trial %d node %d: a+b endpoint off by %g", trial, i, d)
			}
			whole := sab[i] / float64(a+b)
			if d := math.Abs((sa[i]+s2[i])/float64(a+b) - whole); d > 1e-9 {
				t.Fatalf("trial %d node %d: split sums off by %g °C in the mean", trial, i, d)
			}
		}
	}
}

// TestAnchoredDriftCap: a tight drift cap stops the advance early, no
// accepted endpoint leaves the cap, the stop retires the anchor, and a
// start beyond the start gap is refused without touching the state.
func TestAnchoredDriftCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nodes := 2 + rng.Intn(3)
		n, slopes := randomMacroNet(t, rng, nodes)
		// Push far from equilibrium so drift is substantial.
		for i := 0; i < nodes; i++ {
			if err := n.SetPower(NodeID(i), 120); err != nil {
				t.Fatal(err)
			}
		}
		ref := cloneNetwork(t, n)
		base, anchor := anchorInputs(ref)
		const capC = 0.5
		if !n.Anchor(1, slopes) {
			t.Fatalf("trial %d: anchor refused", trial)
		}
		stops := n.PropagatorStats().DriftStops
		steps, _ := n.AdvanceAnchored(4096, capC, 0)
		if steps == 4096 {
			t.Fatalf("trial %d: a 120 W injection should not fit 4096 steps under a %g °C cap", trial, capC)
		}
		if n.PropagatorStats().DriftStops != stops+1 || n.AnchorLive() {
			t.Fatalf("trial %d: a drift stop must be counted and retire the anchor", trial)
		}
		// The accepted endpoint is the reference's step `steps`, inside the
		// cap on every node; the stop is exact — one more step breaches.
		iterateLinearized(t, ref, steps, 1, base, anchor, slopes)
		for i := 0; i < nodes; i++ {
			if d := math.Abs(n.Temp(NodeID(i)) - anchor[i]); d > capC {
				t.Fatalf("trial %d: accepted endpoint node %d drifted %g past the cap", trial, i, d)
			}
			if e := math.Abs(n.Temp(NodeID(i)) - ref.Temp(NodeID(i))); e > 1e-9 {
				t.Fatalf("trial %d: endpoint node %d off the reference by %g", trial, i, e)
			}
		}
		iterateLinearized(t, ref, 1, 1, base, anchor, slopes)
		breach := false
		for i := 0; i < nodes; i++ {
			if math.Abs(ref.Temp(NodeID(i))-anchor[i]) > capC {
				breach = true
			}
		}
		if !breach {
			t.Fatalf("trial %d: stopped after %d steps although step %d stays inside the cap", trial, steps, steps+1)
		}

		// A fresh anchor whose start has moved: the start gate refuses it
		// and leaves the state untouched.
		if !n.Anchor(1, slopes) {
			t.Fatalf("trial %d: re-anchor refused", trial)
		}
		if err := n.SetTemp(0, n.Temp(0)+0.3); err != nil {
			t.Fatal(err)
		}
		before := n.Temp(0)
		if got, _ := n.AdvanceAnchored(10, capC, 0.25); got != 0 || n.Temp(0) != before || n.AnchorLive() {
			t.Fatalf("trial %d: start 0.3 °C from the anchor passed a 0.25 °C gate (%d steps)", trial, got)
		}
	}
}

// TestAnchorRejectsDegenerate covers the must-fall-back cases: a singular
// I − M (a node with no path to any boundary has no fixed point), a
// non-finite map, and the argument guards — each returns no anchor and
// leaves the node temperatures untouched.
func TestAnchorRejectsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, slopes := randomMacroNet(t, rng, 2)
	temps := func() []float64 { return []float64{n.Temp(0), n.Temp(1)} }
	untouched := func(what string, before []float64) {
		t.Helper()
		if got, _ := n.AdvanceAnchored(8, 1, 1); got != 0 {
			t.Fatalf("%s: advanced %d steps without a live anchor", what, got)
		}
		for i, v := range temps() {
			if v != before[i] {
				t.Fatalf("%s: node %d moved %g → %g", what, i, before[i], v)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		dt     float64
		slopes []float64
	}{
		{"dt=0", 0, slopes},
		{"short slopes", 1, slopes[:1]},
		{"NaN slope", 1, []float64{math.NaN(), 0}},
		{"Inf slope", 1, []float64{math.Inf(1), 0}},
	} {
		before := temps()
		if n.Anchor(tc.dt, tc.slopes) {
			t.Fatalf("%s: anchor accepted", tc.name)
		}
		untouched(tc.name, before)
	}
	if got, _ := n.AdvanceAnchored(8, 1, 1); got != 0 {
		t.Fatalf("advance with no anchor at all took %d steps", got)
	}

	// A floating node: no conductance anywhere, zero slope — M has an
	// exact unit eigenvalue and I − M is singular.
	if _, err := n.AddNode("floating", 50, 40); err != nil {
		t.Fatal(err)
	}
	slopes3 := append(append([]float64(nil), slopes...), 0)
	before := temps()
	if n.Anchor(1, slopes3) {
		t.Fatal("singular I − M accepted")
	}
	untouched("singular", before)

	n.SetIntegrator(IntegratorRK4)
	if n.Anchor(1, slopes3) {
		t.Fatal("RK4 networks must be rejected")
	}
}

// TestAnchorSurvivesStateRoundTrip: a live anchor rides through
// State/SetState and the restored network advances bit-identically —
// short windows that split below the top ladder level as well as long
// ones — and malformed anchor images are rejected.
func TestAnchorSurvivesStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	na, slopes := randomMacroNet(t, rng, 4)
	if !na.Anchor(1, slopes) {
		t.Fatal("anchor refused")
	}
	na.AdvanceAnchored(37, 1e9, 0) // the original has used the top level
	nb := cloneNetwork(t, na)
	if err := nb.SetState(na.State()); err != nil {
		t.Fatal(err)
	}
	if !nb.AnchorLive() {
		t.Fatal("restored network lost its anchor")
	}
	// Hostile anchors error instead of restoring garbage.
	bad := na.State()
	bad.AnchorM = bad.AnchorM[:3]
	if err := cloneNetwork(t, na).SetState(bad); err == nil {
		t.Fatal("a truncated anchor matrix restored")
	}
	bad = na.State()
	bad.AnchorM = append([]float64(nil), bad.AnchorM...)
	bad.AnchorM[0] = math.NaN()
	if err := cloneNetwork(t, na).SetState(bad); err == nil {
		t.Fatal("a non-finite anchor matrix restored")
	}
	for _, k := range []int{20, 3, 300} {
		ka, sa := na.AdvanceAnchored(k, 1e9, 1e9)
		kb, sb := nb.AdvanceAnchored(k, 1e9, 1e9)
		if ka != k || kb != k {
			t.Fatalf("window %d: advanced %d vs %d steps", k, ka, kb)
		}
		for i := 0; i < 4; i++ {
			if na.Temp(NodeID(i)) != nb.Temp(NodeID(i)) || sa[i] != sb[i] {
				t.Fatalf("window %d, node %d: restored anchor not bit-identical", k, i)
			}
		}
	}
}

// TestLookupGenerationFastPath pins the satellite contract of the O(1)
// lookup: steady-state steps must not rebuild propagators, same-value
// SetConductance must not move the generation, and toggling between two
// operating points must re-match (and re-stamp) the cached entries instead
// of rebuilding.
func TestLookupGenerationFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, _ := randomMacroNet(t, rng, 3)
	link := LinkID(0)
	gA := n.links[link].g
	gB := gA * 2

	n.Step(1)
	if n.propBuilds != 1 {
		t.Fatalf("first step should build once, built %d", n.propBuilds)
	}
	gen := n.CondGeneration()
	for i := 0; i < 10; i++ {
		if err := n.SetConductance(link, gA); err != nil { // same value: no-op
			t.Fatal(err)
		}
		n.Step(1)
	}
	if n.CondGeneration() != gen {
		t.Fatalf("same-value SetConductance moved the generation %d → %d", gen, n.CondGeneration())
	}
	if n.propBuilds != 1 {
		t.Fatalf("steady state rebuilt the propagator: %d builds", n.propBuilds)
	}

	// Toggle A→B→A→B…: exactly one extra build (for B), then re-stamped
	// slow-path hits keep both entries warm.
	for i := 0; i < 6; i++ {
		g := gA
		if i%2 == 0 {
			g = gB
		}
		if err := n.SetConductance(link, g); err != nil {
			t.Fatal(err)
		}
		n.Step(1)
	}
	if n.propBuilds != 2 {
		t.Fatalf("toggling two operating points built %d times, want 2", n.propBuilds)
	}
}

// TestLookupGenerationBitIdentical: stepping a network through a mixed
// mutation schedule must give bit-identical temperatures whether the cache
// is consulted through the generation fast path (warm stamps) or forced
// down the slow verification path every time (by perturbing the
// generation counter via a no-op topology edit between steps).
func TestLookupGenerationBitIdentical(t *testing.T) {
	run := func(bustGen bool) []float64 {
		rng := rand.New(rand.NewSource(9))
		n, _ := randomMacroNet(t, rng, 3)
		link := LinkID(1)
		base := n.links[link].g
		for k := 0; k < 50; k++ {
			if k%7 == 3 {
				if err := n.SetConductance(link, base*(1+float64(k%3))); err != nil {
					t.Fatal(err)
				}
			}
			if bustGen {
				n.condGen++ // stale stamps: force the slow verification walk
			}
			n.Step(1)
		}
		out := make([]float64, n.NumNodes())
		for i := range out {
			out[i] = n.Temp(NodeID(i))
		}
		return out
	}
	fast, slow := run(false), run(true)
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("node %d differs between fast and slow lookup paths: %g vs %g", i, fast[i], slow[i])
		}
	}
}

// BenchmarkPropagatorLookup shows the steady-state lookup is O(1) in the
// link count: ns/op must stay flat as links grow (the pre-satellite float
// walk scaled linearly).
func BenchmarkPropagatorLookup(b *testing.B) {
	for _, links := range []int{4, 64, 1024} {
		b.Run(benchName("links", links), func(b *testing.B) {
			n := NewNetwork(1)
			amb := n.AddBoundary("amb", 25)
			var last NodeID
			for i := 0; i < links; i++ {
				id, err := n.AddNode("n", 50, 30)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.ConnectBoundary(id, amb, 0.5); err != nil {
					b.Fatal(err)
				}
				last = id
			}
			_ = n.SetPower(last, 20)
			n.Step(1) // build once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n.lookupPropagator(1) == nil {
					b.Fatal("lookup missed at steady state")
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
