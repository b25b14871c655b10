package thermal

import (
	"fmt"

	"repro/internal/mathx"
)

// PropEntry is the serializable key of one cached propagator: the step size
// and the per-link conductance vector it was built for, in LRU order
// (most recently used first). The matrices themselves are derived state —
// mathx.ExpmIntegral is deterministic, so rebuilding from the key
// reproduces them bit-identically — and stay out of the snapshot.
type PropEntry struct {
	H  float64
	Gs []float64
}

// State is the serializable mutable state of a Network built from a fixed
// topology: temperatures, injected powers, boundary temperatures, link
// conductances, the propagator-cache keys in LRU order, the kept
// linearization anchor, and the lifetime cache counters. Restoring
// rebuilds every cached propagator and then overwrites the counters, so
// post-resume metrics dumps match the uninterrupted run exactly (the
// rebuilds themselves are not charged).
//
// The anchor is carried as its defining inputs — T₀, M and c, all empty
// when no anchor is live — and restore re-derives the LU factors, the
// fixed point and the squared levels through the same code path a fresh
// anchor uses, so the resumed anchor is bit-identical and splits every
// later window into the same segments.
type State struct {
	Temps        []float64
	PowerIn      []float64
	Boundaries   []float64
	Conductances []float64
	Props        []PropEntry
	AnchorT0     []float64
	AnchorM      []float64
	AnchorC      []float64
	Stats        PropagatorStats
}

// State captures the network for a checkpoint.
func (n *Network) State() State {
	st := State{
		Temps:        make([]float64, len(n.nodes)),
		PowerIn:      make([]float64, len(n.nodes)),
		Boundaries:   make([]float64, len(n.boundaries)),
		Conductances: make([]float64, len(n.links)),
		Stats:        n.PropagatorStats(),
	}
	for i, nd := range n.nodes {
		st.Temps[i] = nd.temp
		st.PowerIn[i] = nd.powerIn
	}
	for i, b := range n.boundaries {
		st.Boundaries[i] = b.temp
	}
	for i, l := range n.links {
		st.Conductances[i] = l.g
	}
	for _, p := range n.props {
		st.Props = append(st.Props, PropEntry{H: p.h, Gs: append([]float64(nil), p.gs...)})
	}
	if a := &n.anc; a.live {
		st.AnchorT0 = append([]float64(nil), a.t0...)
		st.AnchorM = append([]float64(nil), a.mat...)
		st.AnchorC = append([]float64(nil), a.c...)
	}
	return st
}

// SetState restores a captured State into a network with the same topology
// (node, boundary and link counts must match; the wiring itself is a
// construction parameter).
func (n *Network) SetState(st State) error {
	if len(st.Temps) != len(n.nodes) || len(st.PowerIn) != len(n.nodes) {
		return fmt.Errorf("thermal: state has %d nodes, network has %d", len(st.Temps), len(n.nodes))
	}
	if len(st.Boundaries) != len(n.boundaries) {
		return fmt.Errorf("thermal: state has %d boundaries, network has %d", len(st.Boundaries), len(n.boundaries))
	}
	if len(st.Conductances) != len(n.links) {
		return fmt.Errorf("thermal: state has %d links, network has %d", len(st.Conductances), len(n.links))
	}
	if len(st.Props) > propCacheSize {
		return fmt.Errorf("thermal: state has %d cached propagators, cache holds %d", len(st.Props), propCacheSize)
	}
	m := len(n.nodes)
	live := len(st.AnchorT0) > 0 || len(st.AnchorM) > 0 || len(st.AnchorC) > 0
	if live && (len(st.AnchorT0) != m || len(st.AnchorM) != m*m || len(st.AnchorC) != m) {
		return fmt.Errorf("thermal: anchor has %d/%d/%d entries, network needs %d/%d/%d",
			len(st.AnchorT0), len(st.AnchorM), len(st.AnchorC), m, m*m, m)
	}
	for i := range n.nodes {
		n.nodes[i].temp = st.Temps[i]
		n.nodes[i].powerIn = st.PowerIn[i]
	}
	for i := range n.boundaries {
		n.boundaries[i].temp = st.Boundaries[i]
	}
	for i := range n.links {
		n.links[i].g = st.Conductances[i]
	}
	n.condGen++ // conductance values may have moved; stale stamps must not match
	// Rebuild the propagator cache from its keys, least recently used first,
	// so front-insertion recreates the snapshotted LRU order exactly — the
	// post-resume hit/miss/eviction pattern (and therefore the counters the
	// metrics dump reports) then matches the uninterrupted run.
	n.props = n.props[:0]
	for i := len(st.Props) - 1; i >= 0; i-- {
		if err := n.restorePropagator(st.Props[i]); err != nil {
			return err
		}
	}
	n.anc.live = false
	if live {
		a := &n.anc
		a.size(m)
		copy(a.t0, st.AnchorT0)
		copy(a.mat, st.AnchorM)
		copy(a.c, st.AnchorC)
		if !a.factor() {
			return fmt.Errorf("thermal: restored anchor has a singular or non-finite I − M")
		}
	}
	n.propHits = st.Stats.Hits
	n.propMisses = st.Stats.Misses
	n.propBuilds = st.Stats.Builds
	n.driftStops = st.Stats.DriftStops
	return nil
}

// restorePropagator rebuilds one cache entry from its (h, conductances) key
// against the current topology and inserts it at the front of the LRU,
// mirroring buildPropagator but without touching the live link values or
// the lifetime counters. The generation stamp is made current only when the
// entry's conductance vector equals the live one, so the O(1) fast path
// stays sound after restore.
func (n *Network) restorePropagator(e PropEntry) error {
	m := len(n.nodes)
	if len(e.Gs) != len(n.links) {
		return fmt.Errorf("thermal: cached propagator has %d conductances, network has %d links", len(e.Gs), len(n.links))
	}
	p := &propagator{h: e.H, m: m, gs: append([]float64(nil), e.Gs...)}
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for j, l := range n.links {
		g := e.Gs[j]
		ga := g / n.nodes[l.a].capac
		a[l.a][l.a] -= ga
		if l.toBoundary {
			continue
		}
		gb := g / n.nodes[l.b].capac
		a[l.a][l.b] += ga
		a[l.b][l.b] -= gb
		a[l.b][l.a] += gb
	}
	ad, phi, err := mathx.ExpmIntegral(a, e.H)
	if err != nil {
		p.failed = true
	} else {
		p.ad = make([]float64, m*m)
		p.phi = make([]float64, m*m)
		for i := 0; i < m; i++ {
			copy(p.ad[i*m:(i+1)*m], ad[i])
			copy(p.phi[i*m:(i+1)*m], phi[i])
		}
	}
	current := true
	for j := range n.links {
		if n.links[j].g != e.Gs[j] {
			current = false
			break
		}
	}
	if current {
		p.gen = n.condGen
	} else {
		p.gen = n.condGen - 1 // never equal to the live generation
	}
	if len(n.props) == propCacheSize {
		n.props = n.props[:propCacheSize-1]
	}
	n.props = append(n.props, nil)
	copy(n.props[1:], n.props[:len(n.props)-1])
	n.props[0] = p
	return nil
}
